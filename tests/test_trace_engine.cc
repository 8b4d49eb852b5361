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
 * The inline counting subscription is checked against a reference
 * subscriber (RecordTallySink: every event tallied kind by kind) on
 * plain traffic and on fuzz trials with faults armed — every
 * TraceCounters field, the doubles by their bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
    sink.attach(soc.trace(), &soc.clock());
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
    sink.attach(soc.trace(), &soc.clock());
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

/**
 * The reference tally: a synchronous subscriber that counts every event
 * kind by kind. Subscribed after every response writer it sees final
 * response fields, as the inline tally does.
 */
struct RecordTallySink : probe::Subscriber
{
    void
    onMemAccess(probe::MemAccess &event) override
    {
        if (event.device == probe::MemAccess::Device::Dram)
            ++(event.isWrite ? counters.dramWrites : counters.dramReads);
        else
            ++(event.isWrite ? counters.iramWrites : counters.iramReads);
    }

    void
    onBusTransfer(probe::BusTransfer &event) override
    {
        if (event.duplicate)
            ++counters.busDuplicates;
        if (event.isWrite) {
            ++counters.busWrites;
            counters.busWriteBytes += event.size;
        } else {
            ++counters.busReads;
            counters.busReadBytes += event.size;
        }
    }

    void onCacheEvent(probe::CacheEvent &) override
    {
        ++counters.cacheWritebacks;
    }

    void
    onPowerEvent(probe::PowerEvent &event) override
    {
        ++counters.powerEvents;
        counters.joules += event.joules;
    }

    void
    onDmaBurst(probe::DmaBurst &event) override
    {
        ++counters.dmaBursts;
        counters.dmaBytes += event.len;
    }

    void
    onCryptoOp(probe::CryptoOp &event) override
    {
        ++counters.cryptoOps;
        counters.cryptoBytes += event.bytes;
    }

    void
    onKcryptdOp(probe::KcryptdOp &event) override
    {
        ++counters.kcryptdBlocks;
        counters.kcryptdStallSeconds += event.stallSeconds + stallFor();
    }

    /**
     * Stall the schedule's kcryptd_stall faults add to the current
     * block, for a reference subscribed ahead of the injector (which
     * then writes the response only after this tally ran): the
     * injector's sum over due specs, in schedule order. 0 without a
     * schedule.
     */
    double
    stallFor() const
    {
        if (schedule == nullptr)
            return 0.0;
        const std::uint64_t n = counters.kcryptdBlocks;
        double stall = 0.0;
        for (const fault::FaultSpec &spec : schedule->faults) {
            const bool due = n == spec.after ||
                             (spec.every != 0 && n > spec.after &&
                              (n - spec.after) % spec.every == 0);
            if (spec.kind == fault::FaultKind::KcryptdStall && due)
                stall += spec.seconds;
        }
        return stall;
    }

    probe::TraceCounters counters;
    const fault::FaultSchedule *schedule = nullptr;
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

/** One event line of a ChromeTraceSink timeline file. */
struct TimelineEvent
{
    std::string name;
    std::string ts; //!< as printed (%.3f simulated microseconds)
    unsigned long long a = 0;
    unsigned long long b = 0;
    double f = 0.0;
    bool w = false;
};

/** Parse the one-event-per-line JSON that ChromeTraceSink writes. */
std::vector<TimelineEvent>
readTimeline(const std::string &path)
{
    std::vector<TimelineEvent> events;
    std::ifstream in(path);
    std::string line;
    const auto field = [&line](const char *key) {
        const std::size_t at = line.find(key) + std::strlen(key);
        return line.substr(at, line.find_first_of(",}", at) - at);
    };
    while (std::getline(in, line)) {
        if (line.find("\"name\":\"") == std::string::npos)
            continue;
        TimelineEvent e;
        e.name = field("\"name\":\"");
        e.name.pop_back(); // closing quote
        e.ts = field("\"ts\":");
        e.a = std::strtoull(field("\"a\":").c_str(), nullptr, 10);
        e.b = std::strtoull(field("\"b\":").c_str(), nullptr, 10);
        e.f = std::strtod(field("\"f\":").c_str(), nullptr);
        e.w = field("\"w\":") == "true";
        events.push_back(e);
    }
    return events;
}

} // namespace

TEST(ChromeTraceSink, RecordsFinalResponsesInEmissionOrder)
{
    // The sink subscribes after the response writers, as the device
    // runner attaches it after the fault injector: it records each bus
    // write's replay right after the original, the final stall, and the
    // simulated clock at each event.
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    std::string log;
    DuplicatingSubscriber duplicator;
    TaggingSubscriber staller(&log, 's');
    soc.trace().subscribe(&duplicator,
                          probe::maskOf(probe::TraceKind::BusTransfer));
    soc.trace().subscribe(&staller,
                          probe::maskOf(probe::TraceKind::KcryptdOp));
    probe::ChromeTraceSink sink(1 << 16);
    sink.attach(soc.trace(), &soc.clock());

    driveWorkload(soc);
    soc.l2().cleanAllMasked();
    soc.clock().advanceSeconds(0.25);
    char kcryptdTs[32];
    std::snprintf(kcryptdTs, sizeof kcryptdTs, "%.3f",
                  soc.clock().seconds() * 1e6);
    probe::KcryptdOp stall{0.5};
    soc.trace().emit(stall);
    sink.detach();
    soc.trace().unsubscribe(&staller);
    soc.trace().unsubscribe(&duplicator);
    EXPECT_EQ(log, "s");

    const std::string path = "test_trace_engine_order.json";
    ASSERT_TRUE(sink.writeJson(path));
    const std::vector<TimelineEvent> events = readTimeline(path);
    std::remove(path.c_str());
    ASSERT_EQ(events.size(), sink.eventCount());
    EXPECT_FALSE(sink.truncated());

    std::vector<const TimelineEvent *> bus;
    for (const TimelineEvent &e : events) {
        if (e.name == "bus-transfer")
            bus.push_back(&e);
    }
    unsigned originals = 0;
    for (std::size_t i = 0; i < bus.size(); ++i) {
        const bool duplicate = (bus[i]->b >> 32) != 0;
        if (!bus[i]->w || duplicate)
            continue;
        ++originals;
        ASSERT_LT(i + 1, bus.size());
        EXPECT_EQ(bus[i + 1]->b >> 32, 1u) << "write " << i;
        EXPECT_EQ(bus[i + 1]->a, bus[i]->a) << "write " << i;
        EXPECT_EQ(bus[i + 1]->b & 0xffffffffu, bus[i]->b) << "write " << i;
    }
    EXPECT_GT(originals, 0u);
    unsigned duplicates = 0;
    for (const TimelineEvent *e : bus)
        duplicates += static_cast<unsigned>(e->b >> 32);
    EXPECT_EQ(duplicates, originals);

    // Timestamps are the clock at each event: non-decreasing, and the
    // last event is the kcryptd block emitted at the advanced clock.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(std::strtod(events[i - 1].ts.c_str(), nullptr),
                  std::strtod(events[i].ts.c_str(), nullptr));
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().name, "kcryptd-op");
    EXPECT_DOUBLE_EQ(events.back().f, 1.5);
    EXPECT_EQ(events.back().ts, kcryptdTs);
}

TEST(ChromeTraceSink, WithoutAClockStampsZero)
{
    probe::TraceEngine engine;
    probe::ChromeTraceSink sink(16);
    sink.attach(engine, nullptr);
    probe::KcryptdOp event{0.0};
    engine.emit(event);
    sink.detach();
    const std::string path = "test_trace_engine_noclock.json";
    ASSERT_TRUE(sink.writeJson(path));
    const std::vector<TimelineEvent> events = readTimeline(path);
    std::remove(path.c_str());
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ts, "0.000");
}

TEST(ChromeTraceSink, AutoDumpWritesTheTimelineOnPanic)
{
    // A failing fleet run dies through panic() -> std::abort. The crash
    // hook must leave a loadable trace file with every event the sink
    // recorded before the panic.
    const std::string path = "test_trace_engine_panicdump.json";
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            Soc soc(PlatformConfig::tegra3(16 * MiB));
            probe::ChromeTraceSink sink(1024);
            sink.attach(soc.trace(), &soc.clock());
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

TEST(ChromeTraceSink, AutoDumpWritesTheTimelineFromTheDestructor)
{
    const std::string path = "test_trace_engine_autodump.json";
    std::remove(path.c_str());
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        probe::ChromeTraceSink sink(1024);
        sink.attach(soc.trace(), &soc.clock());
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
    // reference tally subscribed last, with a subscriber before it
    // filling the extraWrites response channel so duplicates are
    // counted too.
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    DuplicatingSubscriber duplicator;
    soc.trace().subscribe(&duplicator,
                          probe::maskOf(probe::TraceKind::BusTransfer));
    RecordTallySink reference;
    soc.trace().subscribe(&reference, probe::TRACE_ALL);
    probe::CounterSink sink;
    sink.attach(soc.trace());

    driveWorkload(soc);
    soc.l2().cleanAllMasked();

    soc.trace().unsubscribe(&reference);
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
 * spawn path, with @p reference subscribed to the device's engine for
 * the whole run. The first run parks a device in the pool; the second
 * re-forks that same device, so the reference sees exactly the events
 * the device runner's CounterSink counts. The runner arms the fault
 * injector after the reference subscribed, so the reference adds the
 * schedule's kcryptd stall itself (RecordTallySink::stallFor).
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
    reference.schedule = &spec.faults;
    engine.subscribe(&reference, probe::TRACE_ALL);
    fleet::DeviceResult result =
        fleet::runDevice(spec.scenario, fleetOptions, 0, &pool);
    engine.unsubscribe(&reference);
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
