/**
 * @file
 * Tests for the TraceEngine spine: subscription semantics (order,
 * mask replacement, response channels), the stock CounterSink and
 * ChromeTraceSink, and trace parity — with tracing enabled, the
 * batched audited AES fast path must produce the same CounterSink
 * totals as the per-block reference loop. Parity is asserted for the
 * Dram and LockedL2 placements only: the iRAM-placement fast path
 * legitimately reads pinned state without calling Iram::read, so its
 * MemAccess counts differ by design (DESIGN.md §9).
 *
 * The inline counting subscription is checked against a record-path
 * reference (RecordTallySink: every record, delivered one at a time,
 * tallied kind by kind) on plain traffic and on fuzz trials with
 * faults armed — every TraceCounters field, the doubles by their bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "common/trace_engine.hh"
#include "core/device.hh"
#include "core/locked_way_manager.hh"
#include "crypto/aes_on_soc.hh"
#include "fault/fuzzer.hh"
#include "fleet/device_runner.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::crypto;
using namespace sentry::hw;

namespace
{

/** Appends a tag on every KcryptdOp and adds one second of stall. */
struct TaggingSubscriber : probe::Subscriber
{
    TaggingSubscriber(std::string *log, char tag) : log_(log), tag_(tag) {}

    void
    onKcryptdOp(probe::KcryptdOp &event) override
    {
        log_->push_back(tag_);
        event.stallSeconds += 1.0;
    }

    std::string *log_;
    char tag_;
};

} // namespace

TEST(TraceEngine, StartsWithNothingEnabled)
{
    probe::TraceEngine engine;
    EXPECT_FALSE(engine.anyEnabled());
    EXPECT_EQ(engine.subscriberCount(), 0u);
    for (unsigned k = 0;
         k < static_cast<unsigned>(probe::TraceKind::NumKinds); ++k)
        EXPECT_FALSE(engine.enabled(static_cast<probe::TraceKind>(k)));
}

TEST(TraceEngine, CallbacksRunInSubscriptionOrder)
{
    // The fault injector relies on this: it arms (subscribes) before
    // any monitor attaches, so fault effects land before recording.
    probe::TraceEngine engine;
    std::string log;
    TaggingSubscriber first(&log, 'a');
    TaggingSubscriber second(&log, 'b');
    engine.subscribe(&first, probe::maskOf(probe::TraceKind::KcryptdOp));
    engine.subscribe(&second, probe::maskOf(probe::TraceKind::KcryptdOp));

    probe::KcryptdOp event{0.0};
    engine.emit(event);
    EXPECT_EQ(log, "ab");
    // Response channel accumulates across subscribers.
    EXPECT_DOUBLE_EQ(event.stallSeconds, 2.0);

    engine.unsubscribe(&first);
    engine.unsubscribe(&second);
    EXPECT_FALSE(engine.anyEnabled());
}

TEST(TraceEngine, ResubscribeReplacesTheMask)
{
    probe::TraceEngine engine;
    std::string log;
    TaggingSubscriber sub(&log, 'x');
    engine.subscribe(&sub, probe::maskOf(probe::TraceKind::KcryptdOp));
    EXPECT_TRUE(engine.enabled(probe::TraceKind::KcryptdOp));

    engine.subscribe(&sub, probe::maskOf(probe::TraceKind::CacheEvent));
    EXPECT_EQ(engine.subscriberCount(), 1u);
    EXPECT_FALSE(engine.enabled(probe::TraceKind::KcryptdOp));
    EXPECT_TRUE(engine.enabled(probe::TraceKind::CacheEvent));

    // The engine does not dispatch kinds outside the active mask.
    probe::KcryptdOp event{0.0};
    engine.emit(event);
    EXPECT_TRUE(log.empty());
    EXPECT_DOUBLE_EQ(event.stallSeconds, 0.0);

    engine.unsubscribe(&sub);
    engine.unsubscribe(&sub); // second detach is a no-op
    EXPECT_EQ(engine.subscriberCount(), 0u);
}

TEST(CounterSink, AccumulatesSocActivityUntilDetached)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::CounterSink sink;
    sink.attach(soc.trace());

    soc.memory().write32(DRAM_BASE + 0x40, 0x11223344u);
    soc.memory().read32(DRAM_BASE + 0x40);
    soc.memory().write32(IRAM_BASE + 0x100, 0x55667788u);

    const probe::TraceCounters &c = sink.counters();
    EXPECT_EQ(c.iramWrites, 1u);
    EXPECT_GE(c.dramReads, 1u); // L2 line fill reached the cell array
    EXPECT_GE(c.busReads, 1u);
    EXPECT_GT(c.busReadBytes, 0u);
    EXPECT_GT(c.memOps(), 0u);
    EXPECT_NE(c.summary().find("busR:"), std::string::npos);

    const probe::TraceCounters frozen = c;
    sink.detach();
    EXPECT_FALSE(soc.trace().anyEnabled());
    soc.memory().write32(DRAM_BASE + 0x80, 1u);
    EXPECT_EQ(sink.counters().memOps(), frozen.memOps());
    EXPECT_EQ(sink.counters().busOps(), frozen.busOps());
}

TEST(ChromeTraceSink, RecordsTimelineAndWritesJson)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::ChromeTraceSink sink(1024);
    sink.attach(soc.trace());
    soc.memory().write32(DRAM_BASE + 0x40, 0xdeadbeefu);
    sink.detach();
    ASSERT_GT(sink.eventCount(), 0u);
    EXPECT_FALSE(sink.truncated());

    const std::string path = "test_trace_engine_timeline.json";
    ASSERT_TRUE(sink.writeJson(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.str().find("bus-transfer"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ChromeTraceSink, TruncatesAtTheEventCap)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::ChromeTraceSink sink(4);
    sink.attach(soc.trace());
    for (unsigned i = 0; i < 8; ++i)
        soc.memory().write32(DRAM_BASE + 0x40 + 64 * i, i);
    sink.detach();
    EXPECT_EQ(sink.eventCount(), 4u);
    EXPECT_TRUE(sink.truncated());
}

namespace
{

/** One machine with a counter sink; engine fast path is on or off. */
struct CountedMachine
{
    explicit CountedMachine(bool fast)
        : soc(PlatformConfig::tegra3(32 * MiB)),
          wayManager(soc, DRAM_BASE + 16 * MiB), fastPath(fast)
    {
        sink.attach(soc.trace());
    }

    void
    makeEngine(StatePlacement placement, std::span<const std::uint8_t> key)
    {
        const PhysAddr base = placement == StatePlacement::Dram
                                  ? DRAM_BASE + 4 * MiB
                                  : wayManager.lockWay()->base;
        engine = std::make_unique<SimAesEngine>(soc, base, key, placement);
        engine->setFastPath(fastPath);
    }

    Soc soc;
    core::LockedWayManager wayManager;
    bool fastPath;
    probe::CounterSink sink; // detaches before soc is destroyed
    std::unique_ptr<SimAesEngine> engine;
};

/** A deterministic byte pattern. */
std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + 31 * i + (i >> 5));
    return v;
}

class TraceParityTest : public testing::TestWithParam<StatePlacement>
{
};

} // namespace

TEST_P(TraceParityTest, CounterTotalsMatchFastPathOnAndOff)
{
    CountedMachine fast(true), ref(false);
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    fast.makeEngine(GetParam(), key);
    ref.makeEngine(GetParam(), key);

    const std::size_t nblocks = 96;
    const auto pt = pattern(nblocks * AES_BLOCK_SIZE, 7);
    std::vector<std::uint8_t> ctFast(pt.size()), ctRef(pt.size());
    fast.engine->encryptBlocks(pt.data(), ctFast.data(), nblocks);
    ref.engine->encryptBlocks(pt.data(), ctRef.data(), nblocks);
    EXPECT_EQ(ctFast, ctRef);

    std::vector<std::uint8_t> back(pt.size());
    fast.engine->decryptBlocks(ctFast.data(), back.data(), nblocks);
    ref.engine->decryptBlocks(ctRef.data(), back.data(), nblocks);

    // Every trace-point total — not just the per-device stats the twin
    // test in test_l2_fastpath.cc compares — must be identical.
    EXPECT_EQ(fast.sink.counters().summary(),
              ref.sink.counters().summary());
    EXPECT_EQ(fast.soc.clock().now(), ref.soc.clock().now());
}

INSTANTIATE_TEST_SUITE_P(Placements, TraceParityTest,
                         testing::Values(StatePlacement::Dram,
                                         StatePlacement::LockedL2),
                         [](const testing::TestParamInfo<StatePlacement>
                                &info) {
                             return info.param == StatePlacement::Dram
                                        ? std::string("Dram")
                                        : std::string("LockedL2");
                         });

namespace
{

/** Batch sink that renders every record to a comparable event stream. */
struct RecordingBatchSink : probe::BatchSubscriber
{
    void
    onRecords(const probe::TraceRecord *records,
              std::size_t count) override
    {
        ++batches;
        for (std::size_t i = 0; i < count; ++i) {
            const probe::TraceRecord &r = records[i];
            char buf[160];
            switch (r.kind) {
              case probe::TraceKind::MemAccess:
                std::snprintf(buf, sizeof buf, "mem %d %d %llx %zu",
                              static_cast<int>(r.mem.device),
                              r.mem.isWrite ? 1 : 0,
                              static_cast<unsigned long long>(r.mem.offset),
                              r.mem.len);
                break;
              case probe::TraceKind::BusTransfer:
                std::snprintf(buf, sizeof buf, "bus %llx %u %d %d %u %p",
                              static_cast<unsigned long long>(r.bus.addr),
                              r.bus.size, r.bus.isWrite ? 1 : 0,
                              r.bus.duplicate ? 1 : 0, r.bus.extraWrites,
                              static_cast<const void *>(r.bus.data));
                break;
              case probe::TraceKind::CacheEvent:
                std::snprintf(buf, sizeof buf, "wb %u %d %llx",
                              r.cache.way, r.cache.wayLocked ? 1 : 0,
                              static_cast<unsigned long long>(
                                  r.cache.addr));
                break;
              case probe::TraceKind::PowerEvent:
                std::snprintf(buf, sizeof buf, "pw %s %.9g",
                              r.power.category, r.power.joules);
                break;
              case probe::TraceKind::DmaBurst:
                std::snprintf(buf, sizeof buf, "dma %llx %zu %d",
                              static_cast<unsigned long long>(r.dma.addr),
                              r.dma.len, r.dma.isWrite ? 1 : 0);
                break;
              case probe::TraceKind::CryptoOp:
                std::snprintf(buf, sizeof buf, "co %zu %d",
                              r.crypto.bytes, r.crypto.encrypt ? 1 : 0);
                break;
              default:
                std::snprintf(buf, sizeof buf, "kc %.9g",
                              r.kcryptd.stallSeconds);
                break;
            }
            char ts[48];
            std::snprintf(ts, sizeof ts, " @%.3f\n", r.tsUs);
            stream += buf;
            stream += ts;
        }
    }

    std::string stream;
    unsigned batches = 0;
};

/**
 * The record-path reference tally: a batch sink that counts every
 * TraceRecord kind by kind. Attached at capacity 1 it sees each record
 * as soon as it is committed.
 */
struct RecordTallySink : probe::BatchSubscriber
{
    void
    onRecords(const probe::TraceRecord *records,
              std::size_t count) override
    {
        probe::TraceCounters &c = counters;
        for (std::size_t i = 0; i < count; ++i) {
            const probe::TraceRecord &r = records[i];
            switch (r.kind) {
              case probe::TraceKind::MemAccess:
                if (r.mem.device == probe::MemAccess::Device::Dram)
                    ++(r.mem.isWrite ? c.dramWrites : c.dramReads);
                else
                    ++(r.mem.isWrite ? c.iramWrites : c.iramReads);
                break;
              case probe::TraceKind::BusTransfer:
                if (r.bus.duplicate)
                    ++c.busDuplicates;
                if (r.bus.isWrite) {
                    ++c.busWrites;
                    c.busWriteBytes += r.bus.size;
                } else {
                    ++c.busReads;
                    c.busReadBytes += r.bus.size;
                }
                break;
              case probe::TraceKind::CacheEvent:
                ++c.cacheWritebacks;
                break;
              case probe::TraceKind::PowerEvent:
                ++c.powerEvents;
                c.joules += r.power.joules;
                break;
              case probe::TraceKind::DmaBurst:
                ++c.dmaBursts;
                c.dmaBytes += r.dma.len;
                break;
              case probe::TraceKind::CryptoOp:
                ++c.cryptoOps;
                c.cryptoBytes += r.crypto.bytes;
                break;
              case probe::TraceKind::KcryptdOp:
                ++c.kcryptdBlocks;
                c.kcryptdStallSeconds += r.kcryptd.stallSeconds;
                break;
              default:
                break;
            }
        }
    }

    probe::TraceCounters counters;
};

/** Every TraceCounters field must match; doubles by their bits. */
void
expectSameCounters(const probe::TraceCounters &inl,
                   const probe::TraceCounters &ref)
{
#define SENTRY_EXPECT_FIELD(f) EXPECT_EQ(inl.f, ref.f) << #f
#define SENTRY_EXPECT_BITS(f)                                               \
    EXPECT_EQ(std::bit_cast<std::uint64_t>(inl.f),                          \
              std::bit_cast<std::uint64_t>(ref.f))                          \
        << #f << ": " << inl.f << " vs " << ref.f
    SENTRY_EXPECT_FIELD(dramReads);
    SENTRY_EXPECT_FIELD(dramWrites);
    SENTRY_EXPECT_FIELD(iramReads);
    SENTRY_EXPECT_FIELD(iramWrites);
    SENTRY_EXPECT_FIELD(busReads);
    SENTRY_EXPECT_FIELD(busWrites);
    SENTRY_EXPECT_FIELD(busDuplicates);
    SENTRY_EXPECT_FIELD(busReadBytes);
    SENTRY_EXPECT_FIELD(busWriteBytes);
    SENTRY_EXPECT_FIELD(cacheWritebacks);
    SENTRY_EXPECT_FIELD(powerEvents);
    SENTRY_EXPECT_BITS(joules);
    SENTRY_EXPECT_FIELD(dmaBursts);
    SENTRY_EXPECT_FIELD(dmaBytes);
    SENTRY_EXPECT_FIELD(cryptoOps);
    SENTRY_EXPECT_FIELD(cryptoBytes);
    SENTRY_EXPECT_FIELD(kcryptdBlocks);
    SENTRY_EXPECT_BITS(kcryptdStallSeconds);
#undef SENTRY_EXPECT_FIELD
#undef SENTRY_EXPECT_BITS
}

/** Asks the bus to replay every original write once. */
struct DuplicatingSubscriber : probe::Subscriber
{
    void
    onBusTransfer(probe::BusTransfer &event) override
    {
        if (event.isWrite && !event.duplicate)
            event.extraWrites += 1;
    }
};

/** Drive a fixed deterministic workload on a fresh Soc. */
void
driveWorkload(Soc &soc)
{
    for (unsigned i = 0; i < 24; ++i)
        soc.memory().write32(DRAM_BASE + 0x40 + 192 * i, 0x1000 + i);
    for (unsigned i = 0; i < 24; ++i)
        soc.memory().read32(DRAM_BASE + 0x40 + 192 * i);
    soc.memory().write32(IRAM_BASE + 0x80, 0xabcdef01u);
}

} // namespace

TEST(TraceBatching, BatchedStreamMatchesUnbatchedStream)
{
    // Capacity 1 delivers every record immediately (the pre-batching
    // behaviour); the default capacity coalesces per bus burst. Both
    // must produce byte-identical event streams — batching may change
    // *when* sinks run, never *what* they see.
    RecordingBatchSink unbatched, batched;
    std::string unbatchedStream, batchedStream;
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        soc.trace().setBatchCapacity(1);
        soc.trace().subscribeBatched(&unbatched, probe::TRACE_ALL);
        driveWorkload(soc);
        soc.trace().unsubscribeBatched(&unbatched);
    }
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        soc.trace().subscribeBatched(&batched, probe::TRACE_ALL);
        driveWorkload(soc);
        soc.trace().unsubscribeBatched(&batched);
    }
    EXPECT_EQ(unbatched.stream, batched.stream);
    EXPECT_FALSE(batched.stream.empty());
    // Batching actually coalesced: fewer deliveries for the same events.
    EXPECT_LT(batched.batches, unbatched.batches);
}

TEST(TraceBatching, CounterTotalsMatchBetweenCapacities)
{
    // A record consumer that tallies must reach the same totals whether
    // the ring delivers per event or per burst.
    probe::TraceCounters unbatched, batched;
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        soc.trace().setBatchCapacity(1);
        RecordTallySink sink;
        soc.trace().subscribeBatched(&sink, probe::TRACE_ALL);
        driveWorkload(soc);
        soc.trace().unsubscribeBatched(&sink);
        unbatched = sink.counters;
    }
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        RecordTallySink sink;
        soc.trace().subscribeBatched(&sink, probe::TRACE_ALL);
        driveWorkload(soc);
        soc.trace().unsubscribeBatched(&sink);
        batched = sink.counters;
    }
    EXPECT_EQ(unbatched.summary(), batched.summary());
    EXPECT_GT(batched.memOps(), 0u);
}

TEST(TraceBatching, ReadersSeeNoStalePrefix)
{
    // eventCount() must flush the pending ring: a mid-burst reader sees
    // every event emitted so far, not just the flushed prefix.
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::ChromeTraceSink sink(1024);
    sink.attach(soc.trace());
    soc.memory().write32(IRAM_BASE + 0x40, 1u); // no bus burst: stays pending
    EXPECT_EQ(soc.trace().pendingCount(), 1u);
    EXPECT_EQ(sink.eventCount(), 1u);
    EXPECT_EQ(soc.trace().pendingCount(), 0u);
}

TEST(TraceBatching, DetachFlushesAndStopsDelivery)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    RecordingBatchSink sink;
    soc.trace().subscribeBatched(&sink, probe::TRACE_ALL);
    soc.memory().write32(IRAM_BASE + 0x40, 1u);
    soc.trace().unsubscribeBatched(&sink); // flushes the pending record
    const std::string frozen = sink.stream;
    EXPECT_FALSE(frozen.empty());
    EXPECT_FALSE(soc.trace().anyEnabled());
    soc.memory().write32(IRAM_BASE + 0x44, 2u);
    EXPECT_EQ(sink.stream, frozen);
}

TEST(TraceBatching, SyncSubscribersRunBeforeTheSnapshot)
{
    // Response fields written by synchronous subscribers must be
    // visible in the batched record (snapshot happens after the sync
    // pass) — the fuzzer's stall accounting depends on it.
    probe::TraceEngine engine;
    std::string log;
    TaggingSubscriber sync(&log, 's');
    RecordingBatchSink batch;
    engine.subscribe(&sync, probe::maskOf(probe::TraceKind::KcryptdOp));
    engine.subscribeBatched(&batch,
                            probe::maskOf(probe::TraceKind::KcryptdOp));

    probe::KcryptdOp event{0.0};
    engine.emit(event);
    engine.flushPending();
    EXPECT_EQ(log, "s");
    EXPECT_NE(batch.stream.find("kc 1"), std::string::npos);

    engine.unsubscribe(&sync);
    engine.unsubscribeBatched(&batch);
}

TEST(TraceBatching, AutoDumpWritesTheTimelineOnPanic)
{
    // A failing fleet run dies through panic() -> std::abort. The crash
    // hook must leave a loadable trace file with the events already
    // delivered to the sink (it deliberately does NOT flush the engine
    // — the engine's state may be the thing that paniced).
    const std::string path = "test_trace_engine_panicdump.json";
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            Soc soc(PlatformConfig::tegra3(16 * MiB));
            probe::ChromeTraceSink sink(1024);
            sink.attach(soc.trace());
            sink.setAutoDump(path);
            soc.memory().write32(DRAM_BASE + 0x40, 0xfeedfaceu);
            panic("trace autodump death test");
        },
        "trace autodump death test");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("traceEvents"), std::string::npos);
    EXPECT_NE(body.str().find("bus-transfer"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceBatching, AutoDumpWritesTheTimelineFromTheDestructor)
{
    const std::string path = "test_trace_engine_autodump.json";
    std::remove(path.c_str());
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        probe::ChromeTraceSink sink(1024);
        sink.attach(soc.trace());
        sink.setAutoDump(path);
        soc.memory().write32(DRAM_BASE + 0x40, 0xfeedfaceu);
        sink.detach();
        // No explicit writeJson: the destructor must dump.
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("bus-transfer"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CountingEquivalence, InlineMatchesRecordTallyOnPlainTraffic)
{
    // Same Soc, same stream: the engine's inline counting and the
    // record-path tally at capacity 1, with a sync subscriber filling
    // the extraWrites response channel so duplicates are counted too.
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    DuplicatingSubscriber duplicator;
    soc.trace().subscribe(&duplicator,
                          probe::maskOf(probe::TraceKind::BusTransfer));
    soc.trace().setBatchCapacity(1);
    RecordTallySink reference;
    soc.trace().subscribeBatched(&reference, probe::TRACE_ALL);
    probe::CounterSink sink;
    sink.attach(soc.trace());

    driveWorkload(soc);
    soc.l2().cleanAllMasked();

    soc.trace().unsubscribeBatched(&reference);
    expectSameCounters(sink.counters(), reference.counters);
    EXPECT_GT(sink.counters().busDuplicates, 0u);
    EXPECT_GT(sink.counters().cacheWritebacks, 0u);
    sink.detach();
    soc.trace().unsubscribe(&duplicator);
}

namespace
{

/**
 * Run @p spec the way fault::runTrial does, forced onto the snapshot
 * spawn path, with @p reference subscribed (at capacity 1) to the
 * device's engine for the whole run. The first run parks a device in
 * the pool; the second re-forks that same device, so the reference sees
 * exactly the events the device runner's CounterSink counts.
 */
fleet::DeviceResult
runWithRecordTally(const fault::FuzzTrialSpec &spec,
                   const fault::FuzzOptions &options,
                   RecordTallySink &reference)
{
    fleet::FleetOptions fleetOptions;
    fleetOptions.devices = 1;
    fleetOptions.threads = 1;
    fleetOptions.seed = spec.seed;
    fleetOptions.platform = options.platform;
    fleetOptions.dramBytes = options.dramBytes;
    fleetOptions.auditEveryStep = true;
    fleetOptions.faultSchedule = &spec.faults;
    if (spec.scenario.hasDefense)
        fleetOptions.defense = spec.scenario.defense;
    fleetOptions.spawnMode = fleet::SpawnMode::Snapshot;
    fleetOptions.templateSnapshot =
        fleet::makeFleetTemplate(spec.scenario, fleetOptions);

    fleet::DevicePool pool;
    fleet::runDevice(spec.scenario, fleetOptions, 0, &pool);
    probe::TraceEngine &engine = pool.device->soc().trace();
    engine.setBatchCapacity(1);
    engine.subscribeBatched(&reference, probe::TRACE_ALL);
    fleet::DeviceResult result =
        fleet::runDevice(spec.scenario, fleetOptions, 0, &pool);
    engine.unsubscribeBatched(&reference);
    return result;
}

} // namespace

TEST(CountingEquivalence, InlineMatchesRecordTallyOnFuzzTrials)
{
    fault::FuzzOptions options;
    options.seed = 0x7ace0000c0417ULL;
    options.shrink = false;
    options.steps = 12;
    options.spawnSnapshot = true;

    probe::TraceCounters total;
    for (unsigned index = 0; index < 6; ++index) {
        SCOPED_TRACE("trial " + std::to_string(index));
        fault::FuzzTrialSpec spec = fault::generateTrial(options, index);
        spec.spawnSnapshot = true;
        // Arm both response channels and a re-entrant emitter (the DMA
        // burst fires from inside the injector's writeback callback) on
        // top of the generated faults.
        spec.faults = fault::parseFaultSchedule(
            fault::formatFaultSchedule(spec.faults) +
            "fault bus_dup_write after 3 every 40 count 1\n"
            "fault kcryptd_stall after 2 every 5 seconds 0.00025\n"
            "fault dma_burst after 4 every 30 bytes 256\n");

        RecordTallySink reference;
        const fleet::DeviceResult result =
            runWithRecordTally(spec, options, reference);
        expectSameCounters(result.trace, reference.counters);

        // The repro file's `# trace:` line is byte-identical too.
        const fault::TrialOutcome outcome = fault::runTrial(spec, options);
        EXPECT_EQ(outcome.traceSummary, reference.counters.summary());
        total += reference.counters;
    }
    // The trials exercised both fault response channels.
    EXPECT_GT(total.busDuplicates, 0u);
    EXPECT_GT(total.kcryptdStallSeconds, 0.0);
    EXPECT_GT(total.dmaBursts, 0u);
}
