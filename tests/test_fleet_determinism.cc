/**
 * @file
 * Deterministic-replay guarantee: the same fleet seed + scenario must
 * produce byte-identical `sim_` metrics across repeated runs and across
 * 1-thread vs N-thread execution. Metrics are compared by their JSON
 * string rendering — the same bytes the drift checker sees.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/device.hh"
#include "fleet/device_runner.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"
#include "fleet/shard.hh"

using namespace sentry;
using namespace sentry::fleet;

namespace
{

FleetOptions
makeOptions(unsigned devices, unsigned threads, std::uint64_t seed)
{
    FleetOptions options;
    options.devices = devices;
    options.threads = threads;
    options.seed = seed;
    options.dramBytes = 8 * MiB;
    return options;
}

/** Every sim_ metric rendered exactly as it lands in BENCH_fleet.json. */
std::string
simFingerprint(const FleetReport &report)
{
    std::string out;
    for (const FleetMetric &metric : report.metrics) {
        if (metric.name.rfind("sim_", 0) == 0) {
            out += metric.name;
            out += '=';
            out += metric.jsonValue();
            out += '\n';
        }
    }
    return out;
}

/** Per-device counters that must also replay exactly. */
std::string
deviceFingerprint(const FleetReport &report)
{
    std::string out;
    for (const DeviceResult &r : report.results) {
        out += std::to_string(r.index) + ":" + std::to_string(r.seed) +
               ":" + std::to_string(r.simCycles) + ":" +
               std::to_string(r.bytesEncryptedOnLock) + ":" +
               std::to_string(r.faultsServiced) + ":" +
               std::to_string(r.l2Misses) + "\n";
    }
    return out;
}

class FleetDeterminism : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
};

} // namespace

TEST_F(FleetDeterminism, RepeatedRunsAreByteIdentical)
{
    const Scenario scenario = builtinScenario("fleet-smoke");
    const FleetOptions options = makeOptions(4, 1, 0x5e47ee1dULL);

    const FleetReport first = runFleet(scenario, options);
    const FleetReport second = runFleet(scenario, options);

    ASSERT_TRUE(first.allOk) << first.summary();
    EXPECT_EQ(simFingerprint(first), simFingerprint(second));
    EXPECT_EQ(deviceFingerprint(first), deviceFingerprint(second));
}

TEST_F(FleetDeterminism, ThreadCountDoesNotChangeSimMetrics)
{
    const Scenario scenario = builtinScenario("fleet-smoke");
    const std::uint64_t seed = 0xfeedface0000ULL;

    const FleetReport serial =
        runFleet(scenario, makeOptions(6, 1, seed));
    const FleetReport threaded =
        runFleet(scenario, makeOptions(6, 4, seed));

    ASSERT_TRUE(serial.allOk) << serial.summary();
    ASSERT_TRUE(threaded.allOk) << threaded.summary();
    EXPECT_EQ(simFingerprint(serial), simFingerprint(threaded));
    EXPECT_EQ(deviceFingerprint(serial), deviceFingerprint(threaded));
}

TEST_F(FleetDeterminism, JitteredScenarioReplaysAcrossThreadCounts)
{
    // interactive-day uses `jitter 30`, so each device scales sizes and
    // durations — the scaling itself must replay bit-exactly too.
    const Scenario scenario = builtinScenario("interactive-day");

    const FleetReport serial =
        runFleet(scenario, makeOptions(4, 1, 0x5e47ee1dULL));
    const FleetReport threaded =
        runFleet(scenario, makeOptions(4, 3, 0x5e47ee1dULL));

    ASSERT_TRUE(serial.allOk) << serial.summary();
    EXPECT_EQ(simFingerprint(serial), simFingerprint(threaded));
}

TEST_F(FleetDeterminism, DifferentSeedsDiverge)
{
    const Scenario scenario = builtinScenario("fleet-smoke");

    const FleetReport a = runFleet(scenario, makeOptions(2, 1, 1));
    const FleetReport b = runFleet(scenario, makeOptions(2, 1, 2));

    const FleetMetric *hashA = a.find("sim_device_seed_hash");
    const FleetMetric *hashB = b.find("sim_device_seed_hash");
    ASSERT_NE(hashA, nullptr);
    ASSERT_NE(hashB, nullptr);
    EXPECT_NE(hashA->u, hashB->u);
}

TEST_F(FleetDeterminism, RecycledDeviceAcrossTemplatesMatchesFreshPool)
{
    // One worker's pool re-forks its resident device from the same
    // template (the journaled incremental restore) and switches
    // between templates of the same platform (the full restore):
    // fleet-scale under two fleet seeds, interactive-day, and
    // fleet-scale from a warmed template.
    const Scenario scale = builtinScenario("fleet-scale");
    const Scenario day = builtinScenario("interactive-day");
    struct Template
    {
        const Scenario *scenario;
        FleetOptions options;
    };
    std::vector<Template> templates;
    const std::pair<const Scenario *, std::uint64_t> sources[] = {
        {&scale, 11}, {&scale, 12}, {&day, 11}};
    for (const auto &[scenario, seed] : sources) {
        FleetOptions options = makeOptions(1, 1, seed);
        options.spawnMode = SpawnMode::Snapshot;
        options.templateSnapshot = makeFleetTemplate(*scenario, options);
        templates.push_back({scenario, options});
    }

    {
        // A warmed template: the state a pool device is left in after
        // a whole interactive-day run. Its L2 differs from a fresh
        // boot's in sets a fleet-scale device never touches, so a
        // partial restore across templates would leave stale lines.
        FleetOptions options = templates[2].options;
        DevicePool warm;
        const DeviceResult warmup = runDevice(day, options, 0, &warm);
        ASSERT_TRUE(warmup.ok) << warmup.error;
        options.templateSnapshot = warm.device->snapshot();
        templates.push_back({&scale, options});
    }

    const unsigned order[] = {0, 0, 0, 1, 1, 0, 2, 2, 0,
                              3, 3, 0, 1, 2, 3, 0, 0};
    DevicePool pool;
    for (unsigned i = 0; i < std::size(order); ++i) {
        const Template &t = templates[order[i]];
        const DeviceResult recycled =
            runDevice(*t.scenario, t.options, i, &pool);
        DevicePool freshPool;
        const DeviceResult fresh =
            runDevice(*t.scenario, t.options, i, &freshPool);
        ASSERT_TRUE(fresh.ok) << fresh.error;
        ASSERT_NE(pool.device, nullptr);
        EXPECT_EQ(deviceDigest(recycled), deviceDigest(fresh))
            << "device " << i << " (template " << order[i] << ")";
        EXPECT_EQ(recycled.simCycles, fresh.simCycles) << "device " << i;
    }
}
