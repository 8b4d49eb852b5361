/**
 * @file
 * perfbench: host-throughput benchmark of the Sentry simulator.
 *
 *   perfbench --workload population|audited-day|fuzz-campaign
 *             --seed N --seconds S --trace 0|1 --ref-dir DIR
 *             [--trace-out FILE] [--write-ref] [--inject-invalid]
 *
 * Each workload runs in its own process: set-up (timed on its own, the
 * median of several samples of repeated set-ups), an untimed warm-up,
 * a timed phase of S seconds on min(4, nproc) workers, and an output
 * check. With --trace 1 the timed phase is split between the real calls
 * and a span-instrumented replay (replay.hh), and per-layer metrics are
 * printed instead of end-to-end ones. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Output check: for a seed with a stored reference (--ref-dir) every
 * fleet batch's sim_* fingerprint and every fuzz trial's verdict,
 * category and digest must match it; a stored reference made with other
 * parameters fails the run. For a seed with no stored file every fleet
 * device must pass its invariants, no fuzz trial may end in a semantic
 * (non-invariant) error, and a 1-worker re-run must reproduce the
 * multi-worker outputs exactly.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "crypto/aes.hh"
#include "fault/fault.hh"
#include "fault/fuzzer.hh"
#include "fleet/fleet.hh"
#include "host/kernels.hh"
#include "replay.hh"
#include "spans.hh"

using namespace sentry;
using namespace perfbench;

namespace
{

/** Set-up samples; setup_s is their median. Half are taken before the
 * warm-up, half after the timed phase: host speed drifts over seconds,
 * and samples on both sides of the phase average more of the drift. */
constexpr unsigned SETUP_SAMPLES = 10;
/** Host seconds one set-up sample lasts at least: it repeats the set-up
 * until then and reports the time of one. */
constexpr double SETUP_SAMPLE_S = 0.1;
/** Devices per fleet batch (one runFleet call). */
constexpr unsigned POPULATION_BATCH = 16384;
constexpr unsigned AUDITED_DAY_BATCH = 64;
/** Trials generated for the fuzz campaign. */
constexpr unsigned CAMPAIGN_TRIALS = 1024;
/** Distinct batch seeds per fleet run (and reference entries). */
constexpr unsigned BATCH_SEEDS = 8;
/** Chrome-trace records kept per thread. */
constexpr std::size_t TRACE_KEEP = 4000;
/** Probe repetitions for layers a workload does not call. */
constexpr unsigned PROBE_REPS = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string refDir;
    std::string traceOut;
    bool writeRef = false;
    bool injectInvalid = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload population|audited-day|"
                 "fuzz-campaign --seed N --seconds S --trace 0|1\n"
                 "                 [--ref-dir DIR] [--trace-out FILE] "
                 "[--write-ref] [--inject-invalid]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        const auto number = [&]() -> std::uint64_t {
            const std::string text = value();
            char *end = nullptr;
            const std::uint64_t n = std::strtoull(text.c_str(), &end, 0);
            if (text.empty() || *end != '\0')
                usage(arg + ": not a number: " + text);
            return n;
        };
        if (arg == "--workload")
            args.workload = value();
        else if (arg == "--seed")
            args.seed = number();
        else if (arg == "--seconds")
            args.seconds = static_cast<double>(number());
        else if (arg == "--trace")
            args.trace = static_cast<int>(number());
        else if (arg == "--ref-dir")
            args.refDir = value();
        else if (arg == "--trace-out")
            args.traceOut = value();
        else if (arg == "--write-ref")
            args.writeRef = true;
        else if (arg == "--inject-invalid")
            args.injectInvalid = true;
        else
            usage("unknown option " + arg);
    }
    if (args.workload != "population" && args.workload != "audited-day" &&
        args.workload != "fuzz-campaign")
        usage("unknown workload '" + args.workload + "'");
    if (args.seconds < 1 || (args.trace != 0 && args.trace != 1))
        usage("--seconds must be >= 1 and --trace 0 or 1");
    return args;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
secondsSince(Clock::time_point t0)
{
    return usBetween(t0, Clock::now()) / 1e6;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Run fn(worker) on @p n threads and join them. */
void
onWorkers(unsigned n, const std::function<void(unsigned)> &fn)
{
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        pool.emplace_back(fn, w);
    for (std::thread &t : pool)
        t.join();
}

// ---------------------------------------------------------------- refs

/**
 * Stored expected outputs of one (workload, seed): a parameter line and
 * one line per batch or trial, keyed by its index. A stored file whose
 * parameters differ from the run's, or that has no entries, does not
 * apply and is a failure (problem); only a seed with no file at all is
 * checked as held out.
 */
struct Reference
{
    std::string path;
    bool exists = false;
    bool applies = false;
    std::string problem;
    std::map<unsigned, std::string> lines;

    static Reference
    load(const Args &args, const std::string &params)
    {
        Reference ref;
        if (args.refDir.empty())
            return ref;
        ref.path = args.refDir + "/" + args.workload + "/seed-" +
                   std::to_string(args.seed) + ".ref";
        std::ifstream in(ref.path);
        if (!in)
            return ref;
        ref.exists = true;
        std::string line;
        std::string stored;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            if (line.rfind("params ", 0) == 0) {
                stored = line.substr(7);
                continue;
            }
            const std::size_t space = line.find(' ');
            const std::size_t next = line.find(' ', space + 1);
            if (space == std::string::npos || next == std::string::npos)
                continue;
            ref.lines[static_cast<unsigned>(
                std::strtoul(line.c_str() + space + 1, nullptr, 10))] = line;
        }
        if (stored != params)
            ref.problem = "stored params '" + stored +
                          "' differ from this run's '" + params +
                          "' (regenerate it with --write-ref)";
        else if (ref.lines.empty())
            ref.problem = "no entries";
        ref.applies = ref.problem.empty();
        return ref;
    }

    /** @return true when @p line is the stored entry for @p index. */
    bool
    matches(unsigned index, const std::string &line) const
    {
        const auto it = lines.find(index);
        return it != lines.end() && it->second == line;
    }
};

bool
writeReference(const Args &args, const std::string &params,
               const std::vector<std::string> &lines)
{
    const std::string dir = args.refDir + "/" + args.workload;
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error)
        return false;
    const std::string path =
        dir + "/seed-" + std::to_string(args.seed) + ".ref";
    std::ofstream out(path, std::ios::trunc);
    out << "# perfbench reference: workload " << args.workload << ", seed "
        << args.seed << "\n";
    out << "params " << params << "\n";
    for (const std::string &line : lines)
        out << line << "\n";
    std::fprintf(stderr, "perfbench: wrote %zu entries to %s\n",
                 lines.size(), path.c_str());
    return static_cast<bool>(out);
}

// ------------------------------------------------------------ results

/** Counters summed from fleet reports (the sim_* aggregates). */
struct SimTotals
{
    std::uint64_t cycles = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t busOps = 0;
    std::uint64_t traceRecords = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t audits = 0;
    std::uint64_t bytesEncryptedOnLock = 0;
    std::uint64_t bytesDecryptedOnDemand = 0;
    std::uint64_t bytesDecryptedEager = 0;
    std::uint64_t steals = 0;
};

/** One timed phase's outcome. */
struct Phase
{
    std::uint64_t units = 0;
    std::uint64_t failed = 0;
    double seconds = 0.0;
    SimTotals sim;
    std::vector<double> unitMs; //!< per-unit host latency (fuzz)
    /** Per-batch rates (fleet): their medians are the reported rates,
     * which keeps a transient host stall from moving the result. */
    std::vector<double> unitRates;
    std::vector<double> mhzRates;

    double
    throughput() const
    {
        return unitRates.empty() ? units / seconds
                                 : percentileOf(unitRates, 50);
    }

    double
    simulatedMhz() const
    {
        return mhzRates.empty() ? static_cast<double>(sim.cycles) /
                                      (seconds * 1e6)
                                : percentileOf(mhzRates, 50);
    }
    std::vector<std::string> failures;

    void
    fail(std::uint64_t n, const std::string &why)
    {
        failed += n;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Layer metrics gathered by the traced run. */
struct Layers
{
    SpanLog workload{0, 0}; //!< setup + replay spans of the workload
    SpanLog probe{0, 0};    //!< coverage probe spans
    /** Per-worker logs of the traced replay (their records are the
     * chrome trace). */
    std::vector<std::unique_ptr<SpanLog>> workers;
    ReplayOutcome replayed; //!< counters of replayed units
    std::vector<double> serialUnitUs;
    double serialReplayChildUs = 0.0;
    unsigned fidelityMatches = 0;
    unsigned fidelityUnits = 0;
    double untracedTput = 0.0;
    double tracedTput = 0.0;
    double parallelEfficiency = 0.0;
    SimTotals sim;
    bool simFromFleet = false;
};

// ------------------------------------------------------------- probes

/** Every step kind and every attack verb, ending in a cold boot. */
const char PROBE_LIVE[] = R"(
spawn vault sensitive heap 64KiB dma 16KiB
spawn game heap 32KiB
touch vault 32KiB
lock
attack dma
attack bus_monitor
attack code_injection
attack prime_probe
attack evict_reload
attack rowhammer
attack tz_side_channel
unlock 0000
filebench 256KiB randread
zero_freed
lock
attack cold_boot
)";

/** A locked device that loses power at its fourth step. */
const char PROBE_GLITCH[] = R"(
spawn vault sensitive heap 32KiB
touch vault 16KiB
lock
sleep 1ms
sleep 1ms
)";

/**
 * Time the calls a workload never makes, so every traced run reports
 * every layer metric: the probe scenarios on cold-booted and forked
 * devices, fault::generateTrial and a template boot.
 */
void
runProbes(SpanLog &log, const fleet::FleetOptions &base)
{
    const fleet::Scenario live = fleet::parseScenario(PROBE_LIVE, "probe");
    const fleet::Scenario glitch =
        fleet::parseScenario(PROBE_GLITCH, "probe-glitch");
    const fault::FaultSchedule power =
        fault::parseFaultSchedule("fault power_glitch after 4 seconds 0.01\n");
    Replayer replayer;
    for (unsigned rep = 0; rep < PROBE_REPS; ++rep) {
        fleet::FleetOptions options = base;
        options.seed = 0x9b0be000ULL + rep;
        options.auditEveryStep = true;
        options.faultSchedule = nullptr;
        options.spawnMode = fleet::SpawnMode::ColdBoot;
        options.templateSnapshot = nullptr;
        const ReplayOutcome a =
            replayer.run(live, options, rep, "fleet.runDevice", &log);
        {
            Span span(&log, "core.makeFleetTemplate");
            options.templateSnapshot = fleet::makeFleetTemplate(live, options);
        }
        options.spawnMode = fleet::SpawnMode::Snapshot;
        const ReplayOutcome b =
            replayer.run(live, options, rep, "fleet.runDevice", &log);
        options.spawnMode = fleet::SpawnMode::ColdBoot;
        options.templateSnapshot = nullptr;
        options.faultSchedule = &power;
        const ReplayOutcome c =
            replayer.run(glitch, options, rep, "fleet.runDevice", &log);
        if (!a.ok || !b.ok || !c.ok)
            std::fprintf(stderr, "perfbench: probe unit failed: %s\n",
                         (!a.ok ? a.error : !b.ok ? b.error : c.error)
                             .c_str());
        fault::FuzzOptions fuzz;
        fuzz.seed = options.seed;
        for (unsigned t = 0; t < 16; ++t) {
            Span span(&log, "fault.generateTrial");
            fault::generateTrial(fuzz, t);
        }
    }
}

/** host.scan_gbps and host.aes_cbc_mbps over workload-sized buffers. */
std::pair<double, double>
hostKernels(std::size_t dramBytes, SpanLog &log)
{
    const host::Kernels &k = host::kernels();
    std::vector<std::uint8_t> buf(dramBytes);
    Rng rng(0x5ca11e7ULL);
    for (auto &byte : buf)
        byte = static_cast<std::uint8_t>(rng.below(128));
    const std::uint8_t needle[16] = {0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa,
                                     0xf9, 0xf8, 0xf7, 0xf6, 0xf5, 0xf4,
                                     0xf3, 0xf2, 0xf1, 0xf0};
    std::vector<double> scanUs;
    for (unsigned rep = 0; rep < 9; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const bool found =
            k.bytes.containsBytes(buf.data(), buf.size(), needle, 16);
        scanUs.push_back(usBetween(t0, Clock::now()));
        log.add("host.containsBytes", scanUs.back());
        if (found)
            throw std::runtime_error("scan found an absent needle");
    }
    const std::uint8_t key[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                                  9, 10, 11, 12, 13, 14, 15, 16};
    const crypto::AesKeySchedule schedule{std::span<const std::uint8_t>(key)};
    const std::uint8_t iv[16] = {};
    std::vector<double> aesUs;
    for (unsigned rep = 0; rep < 9; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t off = 0; off + 4096 <= buf.size(); off += 4096)
            k.aes.cbcEncrypt(schedule, iv, buf.data() + off, 4096);
        aesUs.push_back(usBetween(t0, Clock::now()));
        log.add("host.cbcEncrypt", aesUs.back());
    }
    const double bytes = static_cast<double>(buf.size());
    return {bytes / (percentileOf(scanUs, 50) * 1e3),
            bytes / percentileOf(aesUs, 50)};
}

/**
 * Replay units 0, 1, ... on @p logs.size() workers for @p seconds, worker
 * w with spans into @p logs[w], or with no spans (the same calls at no
 * span cost) when it is null. @p unit(replayer, n, log) replays unit n;
 * @p onFailed(n, outcome) is then called for each replay that did not
 * end ok. Traced workers add their outcomes to @p sums.
 * @return units replayed and the seconds they took.
 */
template <typename Unit, typename OnFailed>
std::pair<std::uint64_t, double>
replayPhase(double seconds, const std::vector<SpanLog *> &logs,
            std::vector<ReplayOutcome> &sums, const Unit &unit,
            const OnFailed &onFailed)
{
    const auto threads = static_cast<unsigned>(logs.size());
    std::atomic<std::uint64_t> next{0};
    std::vector<std::vector<std::pair<std::uint64_t, ReplayOutcome>>>
        failed(threads);
    const Clock::time_point t0 = Clock::now();
    onWorkers(threads, [&](unsigned w) {
        Replayer replayer;
        while (secondsSince(t0) < seconds) {
            const std::uint64_t n = next.fetch_add(1);
            const ReplayOutcome r = unit(replayer, n, logs[w]);
            if (logs[w] != nullptr)
                sums[w] += r;
            if (!r.ok)
                failed[w].emplace_back(n, r);
        }
    });
    const double elapsed = secondsSince(t0);
    for (const auto &mine : failed) {
        for (const auto &[n, r] : mine)
            onFailed(n, r);
    }
    return {next.load(), elapsed};
}

/**
 * The traced replay: @p seconds of replayed units on @p threads workers,
 * in slices alternately without and with spans (U T T U U T T U, so host
 * drift and warm-up fall on both), giving trace.overhead_frac's two
 * rates. The traced slices' spans and counters go to @p out.
 */
template <typename Unit, typename OnFailed>
void
replayRates(unsigned threads, double seconds, Layers &out, const Unit &unit,
            const OnFailed &onFailed)
{
    const std::vector<SpanLog *> none(threads, nullptr);
    std::vector<SpanLog *> logs;
    for (unsigned w = 0; w < threads; ++w) {
        out.workers.push_back(std::make_unique<SpanLog>(w + 1, TRACE_KEEP));
        logs.push_back(out.workers.back().get());
    }
    std::vector<ReplayOutcome> sums(threads);
    double units[2] = {}, elapsed[2] = {};
    constexpr unsigned SLICES = 8;
    for (unsigned slice = 0; slice < SLICES; ++slice) {
        const unsigned traced = ((slice + 1) / 2) % 2;
        const auto [n, s] = replayPhase(seconds / SLICES,
                                        traced ? logs : none, sums, unit,
                                        onFailed);
        units[traced] += static_cast<double>(n);
        elapsed[traced] += s;
    }
    out.untracedTput = units[0] / elapsed[0];
    out.tracedTput = units[1] / elapsed[1];
    for (unsigned w = 0; w < threads; ++w) {
        out.workload.mergeStats(*logs[w]);
        out.replayed += sums[w];
    }
}

/** The serial sample's verdict on one unit: does its replay end where
 * the real run did? A mismatch fails @p phase. */
void
checkReplay(const std::string &unit, bool realOk, Cycles realCycles,
            const ReplayOutcome &rep, Layers &out, Phase &phase)
{
    ++out.fidelityUnits;
    if (rep.ok == realOk && rep.simCycles == realCycles) {
        ++out.fidelityMatches;
        return;
    }
    phase.fail(0, "replay of " + unit + " ended at " +
                      std::to_string(rep.simCycles) + " cycles (" +
                      (rep.ok ? "ok" : "failed: " + rep.error) +
                      "), the real run at " + std::to_string(realCycles) +
                      " (" + (realOk ? "ok" : "failed") +
                      "): the per-layer figures no longer describe the "
                      "program");
}

// -------------------------------------------------------------- fleet

/** Fingerprint of a fleet report: every deterministic sim_ metric. */
std::string
fleetLine(unsigned batch, const fleet::FleetReport &report)
{
    std::string all;
    std::string cycles, seedHash;
    for (const fleet::FleetMetric &m : report.metrics) {
        if (m.name.rfind("sim_", 0) != 0)
            continue;
        all += m.name + "=" + m.jsonValue() + "\n";
        if (m.name == "sim_cycles_total")
            cycles = m.jsonValue();
        else if (m.name == "sim_device_seed_hash")
            seedHash = m.jsonValue();
    }
    return "batch " + std::to_string(batch) + " cycles=" + cycles +
           " seedhash=" + seedHash +
           " failed=" + std::to_string(report.failedDevices) +
           " fp=" + hex(fnv64(all));
}

std::uint64_t
metricU(const fleet::FleetReport &report, const char *name)
{
    const fleet::FleetMetric *m = report.find(name);
    return m != nullptr ? m->u : 0;
}

void
addSim(SimTotals &sim, const fleet::FleetReport &report)
{
    sim.cycles += metricU(report, "sim_cycles_total");
    sim.l2Hits += metricU(report, "sim_l2_hits_total");
    sim.l2Misses += metricU(report, "sim_l2_misses_total");
    sim.busOps += metricU(report, "sim_bus_reads_total") +
                  metricU(report, "sim_bus_writes_total");
    sim.traceRecords += metricU(report, "sim_trace_mem_ops_total") +
                        metricU(report, "sim_trace_bus_ops_total") +
                        metricU(report, "sim_trace_writebacks_total") +
                        metricU(report, "sim_trace_kcryptd_blocks_total") +
                        metricU(report, "sim_trace_power_events_total");
    sim.pageFaults += metricU(report, "sim_faults_total");
    sim.audits += metricU(report, "sim_audits_total");
    sim.bytesEncryptedOnLock += metricU(report, "sim_bytes_encrypted_on_lock");
    sim.bytesDecryptedOnDemand +=
        metricU(report, "sim_bytes_decrypted_on_demand");
    sim.bytesDecryptedEager += metricU(report, "sim_bytes_decrypted_eager");
    sim.steals += report.steals;
}

/**
 * Insert a lock and a touch of the parked sensitive process right after
 * its spawn (spawning one first if the scenario has none): a step the
 * runner must reject. Placed early, it runs before any step that could
 * end the unit (a cold-boot attack, a power glitch).
 */
void
insertInvalidTouch(fleet::Scenario &scenario)
{
    std::vector<fleet::Step> &steps = scenario.steps;
    auto at = std::find_if(steps.begin(), steps.end(),
                           [](const fleet::Step &step) {
                               return step.op == fleet::Op::Spawn &&
                                      step.sensitive && !step.background;
                           });
    if (at == steps.end()) {
        fleet::Step spawn;
        spawn.op = fleet::Op::Spawn;
        spawn.name = "parked";
        spawn.sensitive = true;
        spawn.bytes = 16 * KiB;
        at = steps.insert(steps.begin(), spawn);
    }
    fleet::Step lock;
    lock.op = fleet::Op::Lock;
    fleet::Step touch;
    touch.op = fleet::Op::Touch;
    touch.name = at->name;
    touch.bytes = 4 * KiB;
    steps.insert(std::next(at), {lock, touch});
    for (std::size_t i = 0; i < steps.size(); ++i)
        steps[i].line = static_cast<unsigned>(i + 1);
}

class FleetBench
{
  public:
    FleetBench(const Args &args, unsigned threads)
        : args_(args), threads_(threads)
    {
        population_ = args.workload == "population";
        batch_ = population_ ? POPULATION_BATCH : AUDITED_DAY_BATCH;
        // The fleet-scale preset's statements, made homogeneous; or the
        // interactive-day preset as shipped.
        fleet::Scenario preset = fleet::builtinScenario(
            population_ ? "fleet-scale" : "interactive-day");
        if (population_)
            preset.jitter = 0.0;
        text_ = fleet::formatScenario(preset);
    }

    std::string
    params() const
    {
        return "batch=" + std::to_string(batch_) +
               " batch_seeds=" + std::to_string(BATCH_SEEDS);
    }

    /** Parse the scenario and boot the snapshot template. */
    void
    setup(SpanLog *log)
    {
        {
            Span span(log, "fleet.parseScenario");
            scenario_ = fleet::parseScenario(text_, args_.workload);
        }
        base_ = fleet::FleetOptions{};
        base_.devices = batch_;
        base_.threads = threads_;
        base_.retainResults = false;
        base_.spawnMode = fleet::SpawnMode::Snapshot;
        {
            Span span(log, "core.makeFleetTemplate");
            base_.templateSnapshot =
                fleet::makeFleetTemplate(scenario_, resolvedNoTemplate());
        }
        invalid_ = scenario_;
        insertInvalidTouch(invalid_);
    }

    std::uint64_t
    batchSeed(unsigned batch) const
    {
        return splitmix(args_.seed * 0x1000193ULL + batch % BATCH_SEEDS);
    }

    /** Run fleet batch @p b and account for its devices. */
    void
    runBatch(unsigned b, unsigned threads, unsigned devices,
             const Reference &ref, Phase &phase, bool invalid = false)
    {
        fleet::FleetOptions options = base_;
        options.seed = batchSeed(b);
        options.threads = threads;
        options.devices = devices;
        phase.units += devices;
        try {
            const fleet::FleetReport report =
                fleet::runFleet(invalid ? invalid_ : scenario_, options);
            addSim(phase.sim, report);
            const std::string line = fleetLine(b % BATCH_SEEDS, report);
            lastLine_ = line;
            if (report.failedDevices != 0) {
                phase.fail(report.failedDevices,
                           "batch " + std::to_string(b) + ": " +
                               (report.failures.empty()
                                    ? std::string("device failed")
                                    : report.failures.front().error));
            } else if (ref.applies && !ref.matches(b % BATCH_SEEDS, line)) {
                phase.fail(devices, "batch " + std::to_string(b) +
                                        " differs from " + ref.path +
                                        ": got '" + line + "'");
            }
        } catch (const std::exception &e) {
            phase.fail(devices, "batch " + std::to_string(b) +
                                    " threw: " + e.what());
        }
    }

    void
    warmup(const Reference &ref)
    {
        warm_ = Phase{};
        runBatch(0, threads_, batch_, ref, warm_);
    }

    Phase
    timed(double seconds, const Reference &ref)
    {
        Phase phase;
        for (const std::string &f : warm_.failures)
            phase.fail(0, "warm-up: " + f);
        const Clock::time_point t0 = Clock::now();
        for (unsigned b = 0;; ++b) {
            const Clock::time_point s = Clock::now();
            const std::uint64_t cyclesBefore = phase.sim.cycles;
            runBatch(b, threads_, batch_, ref, phase,
                     args_.injectInvalid && b == 0);
            const double wall = secondsSince(s);
            phase.unitRates.push_back(batch_ / wall);
            phase.mhzRates.push_back(
                static_cast<double>(phase.sim.cycles - cyclesBefore) /
                (wall * 1e6));
            if (secondsSince(t0) >= seconds)
                break;
        }
        phase.seconds = secondsSince(t0);
        return phase;
    }

    /** Held-out check: 1 worker and N workers agree, all devices green. */
    bool
    verifyHeldOut(Phase &phase)
    {
        const unsigned devices = std::min(batch_, population_ ? 2048u : 16u);
        const Reference none;
        Phase serial, parallel;
        runBatch(0, 1, devices, none, serial);
        const std::string serialLine = lastLine_;
        runBatch(0, threads_, devices, none, parallel);
        const bool same = serialLine == lastLine_;
        if (!same)
            phase.failures.push_back("1-worker fingerprint '" + serialLine +
                                     "' != " + std::to_string(threads_) +
                                     "-worker '" + lastLine_ + "'");
        for (const std::string &f : serial.failures)
            phase.failures.push_back("held-out check: " + f);
        return same && serial.failed == 0 && parallel.failed == 0;
    }

    std::vector<std::string>
    referenceLines()
    {
        std::vector<std::string> lines;
        const Reference none;
        for (unsigned b = 0; b < BATCH_SEEDS; ++b) {
            Phase phase;
            runBatch(b, threads_, batch_, none, phase);
            if (phase.failed != 0)
                throw std::runtime_error("reference batch failed: " +
                                         phase.failures.front());
            lines.push_back(lastLine_);
        }
        return lines;
    }

    /**
     * The traced run: @p seconds of real batches, then @p seconds of the
     * same units replayed (replayRates), then a serial sample of real
     * units against their replays. @return the real phase, failed when a
     * replay departs from the real run.
     */
    Phase
    layers(double seconds, const Reference &ref, Layers &out)
    {
        std::vector<fleet::FleetOptions> resolved;
        for (unsigned b = 0; b < BATCH_SEEDS; ++b) {
            fleet::FleetOptions options = base_;
            options.seed = batchSeed(b);
            resolved.push_back(fleet::resolveFleetOptions(scenario_, options));
        }

        Phase real = timed(seconds, ref);
        out.sim = real.sim;
        out.simFromFleet = true;

        // Every real device of scenario_ passes (a failing one has failed
        // the run already), so a failing replay is a departure.
        const auto unit = [&](Replayer &replayer, std::uint64_t n,
                              SpanLog *log) {
            const auto b = static_cast<unsigned>(n / batch_);
            return replayer.run(scenario_, resolved[b % BATCH_SEEDS],
                                static_cast<unsigned>(n % batch_),
                                "fleet.runDevice", log);
        };
        const auto failed = [&](std::uint64_t n, const ReplayOutcome &r) {
            real.fail(0, "replay of device " + std::to_string(n % batch_) +
                             " of batch " + std::to_string(n / batch_) +
                             " failed: " + r.error);
        };
        replayRates(threads_, seconds, out, unit, failed);

        // Serial sample: the real runDevice vs its replay, unit by unit.
        const unsigned sample = population_ ? 1000 : 12;
        SpanLog serialLog(threads_ + 1, 0);
        fleet::DevicePool pool;
        Replayer replayer;
        for (unsigned i = 0; i < sample; ++i) {
            const unsigned index = (i * 7919u) % batch_;
            const Clock::time_point s = Clock::now();
            const fleet::DeviceResult result =
                fleet::runDevice(scenario_, resolved[0], index, &pool);
            out.serialUnitUs.push_back(usBetween(s, Clock::now()));
            const double before = serialLog.rootChildUs();
            const ReplayOutcome rep = replayer.run(
                scenario_, resolved[0], index, "fleet.runDevice", &serialLog);
            out.serialReplayChildUs += serialLog.rootChildUs() - before;
            checkReplay("device " + std::to_string(index), result.ok,
                        result.simCycles, rep, out, real);
        }
        double serialSum = 0.0;
        for (double us : out.serialUnitUs)
            serialSum += us;
        out.parallelEfficiency = (serialSum / sample) * real.units /
                                 (threads_ * real.seconds * 1e6);
        return real;
    }

  private:
    /** Options resolved except for the template (booted from them). */
    fleet::FleetOptions
    resolvedNoTemplate() const
    {
        fleet::FleetOptions options = base_;
        options.spawnMode = fleet::SpawnMode::ColdBoot;
        options = fleet::resolveFleetOptions(scenario_, options);
        options.spawnMode = fleet::SpawnMode::Snapshot;
        return options;
    }

    const Args &args_;
    unsigned threads_;
    bool population_ = false;
    unsigned batch_ = 0;
    std::string text_;
    fleet::Scenario scenario_;
    fleet::Scenario invalid_;
    fleet::FleetOptions base_;
    std::string lastLine_;
    Phase warm_;
};

// --------------------------------------------------------------- fuzz

struct TrialRecord
{
    bool ok = true;
    std::string category;
    std::string digest;
    Cycles cycles = 0;
};

std::string
fuzzLine(unsigned index, const TrialRecord &r)
{
    return "trial " + std::to_string(index) + " " + (r.ok ? "OK" : "FAIL") +
           " " + r.category + " " + hex(fnv64(r.digest));
}

class FuzzBench
{
  public:
    FuzzBench(const Args &args, unsigned threads)
        : args_(args), threads_(threads)
    {
        options_.seed = splitmix(args.seed ^ 0xf022ca4a16e00000ULL);
        options_.trials = CAMPAIGN_TRIALS;
        options_.shrink = false;
        options_.spawnSnapshot = false;
    }

    std::string
    params() const
    {
        return "campaign=" + std::to_string(options_.trials) +
               " steps=" + std::to_string(options_.steps);
    }

    void
    setup(SpanLog *log)
    {
        specs_.clear();
        specs_.reserve(options_.trials);
        for (unsigned t = 0; t < options_.trials; ++t) {
            Span span(log, "fault.generateTrial");
            specs_.push_back(fault::generateTrial(options_, t));
        }
        if (args_.injectInvalid) {
            // Disarm trial 0's faults too: a power glitch at its first
            // step would end the trial before the invalid one.
            specs_[0].faults = fault::FaultSchedule{};
            insertInvalidTouch(specs_[0].scenario);
        }
    }

    TrialRecord
    runOne(unsigned index) const
    {
        TrialRecord r;
        try {
            const fault::TrialOutcome outcome =
                fault::runTrial(specs_[index], options_);
            r.ok = outcome.ok;
            r.category = fault::classifyOutcome(outcome);
            r.digest = outcome.digest;
            r.cycles = outcome.simCycles;
        } catch (const std::exception &e) {
            r.ok = false;
            r.category = "threw";
            r.digest = e.what();
        }
        return r;
    }

    /** Account for trial @p index's record against the output check. */
    void
    check(unsigned index, const TrialRecord &r, const Reference &ref,
          Phase &phase) const
    {
        const std::string line = fuzzLine(index, r);
        if (ref.applies) {
            if (!ref.matches(index, line))
                phase.fail(1, "differs from " + ref.path + ": got '" +
                                  line + "'");
        } else if (r.category == "semantic" || r.category == "threw") {
            phase.fail(1, line + " (unexpected error: " + r.digest + ")");
        }
    }

    /** Run trials from @p first on all workers until @p seconds pass. */
    Phase
    run(double seconds, const Reference &ref, unsigned first = 0,
        unsigned limit = 0)
    {
        Phase phase;
        std::mutex mu;
        std::atomic<unsigned> next{first};
        const Clock::time_point t0 = Clock::now();
        onWorkers(threads_, [&](unsigned) {
            std::vector<std::pair<unsigned, TrialRecord>> mine;
            std::vector<double> ms;
            while (secondsSince(t0) < seconds) {
                const unsigned n = next.fetch_add(1);
                if (limit != 0 && n >= first + limit)
                    break;
                const unsigned index = n % options_.trials;
                const Clock::time_point s = Clock::now();
                mine.emplace_back(index, runOne(index));
                ms.push_back(usBetween(s, Clock::now()) / 1000.0);
            }
            const std::lock_guard<std::mutex> guard(mu);
            for (const auto &[index, r] : mine) {
                ++phase.units;
                phase.sim.cycles += r.cycles;
                check(index, r, ref, phase);
                records_[index] = r;
            }
            phase.unitMs.insert(phase.unitMs.end(), ms.begin(), ms.end());
        });
        phase.seconds = secondsSince(t0);
        return phase;
    }

    void
    warmup(const Reference &ref)
    {
        warm_ = run(1e9, ref, 0, std::min(options_.trials, 4 * threads_));
    }

    Phase
    timed(double seconds, const Reference &ref)
    {
        Phase phase = run(seconds, ref);
        for (const std::string &f : warm_.failures)
            phase.fail(0, "warm-up: " + f);
        if (args_.injectInvalid) {
            // Make sure the tampered trial is part of the measured set.
            const TrialRecord r = runOne(0);
            ++phase.units;
            check(0, r, ref, phase);
        }
        return phase;
    }

    /** Held-out check: a 1-worker re-run reproduces the N-worker runs. */
    bool
    verifyHeldOut(Phase &phase)
    {
        const unsigned k = std::min(options_.trials, 24u);
        bool same = true;
        for (unsigned t = 0; t < k; ++t) {
            const auto it = records_.find(t);
            if (it == records_.end())
                continue;
            const TrialRecord serial = runOne(t);
            if (fuzzLine(t, serial) != fuzzLine(t, it->second)) {
                same = false;
                phase.failures.push_back("trial " + std::to_string(t) +
                                         ": 1-worker run differs");
            }
        }
        return same;
    }

    std::vector<std::string>
    referenceLines()
    {
        const Reference none;
        const Phase phase = run(1e9, none, 0, options_.trials);
        if (phase.failed != 0)
            throw std::runtime_error("reference trial failed: " +
                                     phase.failures.front());
        std::vector<std::string> lines;
        for (unsigned t = 0; t < options_.trials; ++t)
            lines.push_back(fuzzLine(t, records_.at(t)));
        return lines;
    }

    /** As FleetBench::layers, for trials. */
    Phase
    layers(double seconds, const Reference &ref, Layers &out)
    {
        Phase real = timed(seconds, ref);

        const auto unit = [&](Replayer &replayer, std::uint64_t n,
                              SpanLog *log) {
            const auto index = static_cast<unsigned>(n % options_.trials);
            return replayer.run(specs_[index].scenario, trialOptions(index),
                                0, "fault.runTrial", log);
        };
        // A few trials legitimately end in an invariant FAIL; a failing
        // replay departs only where the real trial passed.
        const auto failed = [&](std::uint64_t n, const ReplayOutcome &r) {
            const auto index = static_cast<unsigned>(n % options_.trials);
            auto it = records_.find(index);
            if (it == records_.end())
                it = records_.emplace(index, runOne(index)).first;
            if (it->second.ok)
                real.fail(0, "replay of trial " + std::to_string(index) +
                                 " failed where the real trial passed: " +
                                 r.error);
        };
        replayRates(threads_, seconds, out, unit, failed);

        SpanLog serialLog(threads_ + 1, 0);
        Replayer replayer;
        const unsigned sample = std::min(options_.trials, 24u);
        for (unsigned t = 0; t < sample; ++t) {
            const Clock::time_point s = Clock::now();
            const fault::TrialOutcome outcome =
                fault::runTrial(specs_[t], options_);
            out.serialUnitUs.push_back(usBetween(s, Clock::now()));
            const double before = serialLog.rootChildUs();
            const ReplayOutcome rep =
                replayer.run(specs_[t].scenario, trialOptions(t), 0,
                             "fault.runTrial", &serialLog);
            out.serialReplayChildUs += serialLog.rootChildUs() - before;
            checkReplay("trial " + std::to_string(t), outcome.ok,
                        outcome.simCycles, rep, out, real);
        }
        double serialSum = 0.0;
        for (double us : out.serialUnitUs)
            serialSum += us;
        out.parallelEfficiency = (serialSum / sample) * real.units /
                                 (threads_ * real.seconds * 1e6);
        return real;
    }

  private:
    /** The options fault::runTrial builds for trial @p index. */
    fleet::FleetOptions
    trialOptions(unsigned index) const
    {
        const fault::FuzzTrialSpec &spec = specs_[index];
        fleet::FleetOptions options;
        options.seed = spec.seed;
        options.platform = options_.platform;
        options.dramBytes = options_.dramBytes;
        options.auditEveryStep = true;
        options.faultSchedule = &spec.faults;
        if (spec.scenario.hasDefense)
            options.defense = spec.scenario.defense;
        return options;
    }

    const Args &args_;
    unsigned threads_;
    fault::FuzzOptions options_;
    std::vector<fault::FuzzTrialSpec> specs_;
    std::map<unsigned, TrialRecord> records_;
    Phase warm_;
};

// ------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
printResult(bool correct, const Phase &phase,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(phase.units),
                static_cast<unsigned long long>(phase.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    formatNumber(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** A workload span statistic, else the probe's. */
const SpanStats *
statsFor(const Layers &layers, std::string_view name, bool &fromProbe)
{
    const auto it = layers.workload.stats().find(name);
    if (it != layers.workload.stats().end() && it->second.count != 0) {
        fromProbe = false;
        return &it->second;
    }
    fromProbe = true;
    const auto p = layers.probe.stats().find(name);
    return p != layers.probe.stats().end() ? &p->second : nullptr;
}

std::vector<Metric>
layerMetrics(const Layers &layers, std::pair<double, double> hostRates,
             bool fuzz)
{
    std::vector<Metric> m;
    std::vector<std::string> fromProbe;
    const auto pct = [&](std::string_view span, double p, double scale) {
        bool probe = false;
        const SpanStats *s = statsFor(layers, span, probe);
        if (probe)
            fromProbe.emplace_back(span);
        return s != nullptr ? percentileOf(s->samplesUs, p) * scale : 0.0;
    };
    const auto both = [&](const std::string &name, std::string_view span,
                          const char *unit, double scale) {
        m.push_back({name + ".p50", pct(span, 50, scale), unit});
        m.push_back({name + ".p99", pct(span, 99, scale), unit});
    };
    m.push_back({"core.template_boot_s",
                 pct("core.makeFleetTemplate", 50, 1e-6), "s"});
    m.push_back({"fault.generate_us", pct("fault.generateTrial", 50, 1.0),
                 "us"});
    m.push_back({"fleet.device_ms.p50",
                 percentileOf(layers.serialUnitUs, 50) / 1e3, "ms"});
    m.push_back({"fleet.device_ms.p99",
                 percentileOf(layers.serialUnitUs, 99) / 1e3, "ms"});
    m.push_back({"fleet.parallel_efficiency", layers.parallelEfficiency,
                 "ratio"});
    m.push_back({"fleet.steals", static_cast<double>(layers.sim.steals),
                 "count"});
    both("core.fork_us", "core.forkFrom", "us", 1.0);
    both("os.touch_us", "os.touchRange", "us", 1.0);
    both("core.audit_ms", "core.checkLive", "ms", 1e-3);
    both("core.lock_ms", "core.lockScreen", "ms", 1e-3);
    both("core.unlock_ms", "core.unlockScreen", "ms", 1e-3);
    m.push_back({"os.filebench_ms", pct("os.filebench", 50, 1e-3), "ms"});
    m.push_back(
        {"os.zero_freed_ms", pct("os.zeroFreedPages", 50, 1e-3), "ms"});
    m.push_back({"core.cold_boot_ms", pct("core.coldBoot", 50, 1e-3), "ms"});
    m.push_back(
        {"hw.power_cycle_ms", pct("hw.powerCycle", 50, 1e-3), "ms"});
    m.push_back(
        {"core.dump_scan_ms", pct("core.checkDumps", 50, 1e-3), "ms"});
    for (const char *verb :
         {"dma", "bus_monitor", "code_injection", "cold_boot", "prime_probe",
          "evict_reload", "rowhammer", "tz_side_channel"}) {
        const std::string span = std::string("attacks.") + verb;
        m.push_back({span + "_ms", pct(span, 50, 1e-3), "ms"});
    }
    m.push_back({"host.scan_gbps", hostRates.first, "GB/s"});
    m.push_back({"host.aes_cbc_mbps", hostRates.second, "MB/s"});

    // Counters: the fleet's own sim_ aggregates on fleet workloads, the
    // replayed units' device counters on the fuzz workload.
    SimTotals sim = layers.sim;
    if (!layers.simFromFleet) {
        const ReplayOutcome &r = layers.replayed;
        sim.l2Hits = r.l2Hits;
        sim.l2Misses = r.l2Misses;
        sim.busOps = r.busOps;
        sim.traceRecords = r.traceRecords;
        sim.pageFaults = r.pageFaults;
        sim.audits = r.audits;
        sim.bytesEncryptedOnLock = r.bytesEncryptedOnLock;
        sim.bytesDecryptedOnDemand = r.bytesDecryptedOnDemand;
        sim.bytesDecryptedEager = r.bytesDecryptedEager;
    }
    const auto count = [&](const char *name, std::uint64_t v) {
        m.push_back({name, static_cast<double>(v), "count"});
    };
    count("os.page_faults", sim.pageFaults);
    count("core.audits", sim.audits);
    m.push_back({"core.bytes_encrypted_on_lock",
                 static_cast<double>(sim.bytesEncryptedOnLock), "B"});
    m.push_back({"core.bytes_decrypted_on_demand",
                 static_cast<double>(sim.bytesDecryptedOnDemand), "B"});
    m.push_back({"core.bytes_decrypted_eager",
                 static_cast<double>(sim.bytesDecryptedEager), "B"});
    count("fault.firings", fuzz ? layers.replayed.faultFirings : 0);
    const double l2 = static_cast<double>(sim.l2Hits + sim.l2Misses);
    m.push_back({"hw.l2_hit_ratio", l2 > 0 ? sim.l2Hits / l2 : 0.0,
                 "ratio"});
    count("hw.bus_ops", sim.busOps);
    count("common.trace_records", sim.traceRecords);
    std::printf("  (base: hw.l2_hit_ratio = %llu hits / %.0f accesses; "
                "counters from %s)\n",
                static_cast<unsigned long long>(sim.l2Hits), l2,
                layers.simFromFleet ? "the timed fleet batches' sim_ totals"
                                    : "the replayed trials");

    m.push_back({"trace.overhead_frac",
                 layers.untracedTput > 0
                     ? 1.0 - layers.tracedTput / layers.untracedTput
                     : 0.0,
                 "ratio"});
    double serialSum = 0.0;
    for (double us : layers.serialUnitUs)
        serialSum += us;
    m.push_back({"trace.span_coverage",
                 serialSum > 0 ? layers.serialReplayChildUs / serialSum : 0.0,
                 "ratio"});
    m.push_back({"trace.replay_fidelity",
                 layers.fidelityUnits != 0
                     ? static_cast<double>(layers.fidelityMatches) /
                           layers.fidelityUnits
                     : 0.0,
                 "ratio"});

    // Self time per layer over the traced replay, as a share of the
    // replayed units' root spans.
    std::map<std::string, double> self;
    for (const auto &[name, stats] : layers.workload.stats()) {
        const std::string layer(name.substr(0, name.find('.')));
        self[layer] += stats.selfUs;
    }
    const double root = layers.workload.rootUs();
    for (const char *layer :
         {"fleet", "core", "os", "hw", "attacks", "fault"}) {
        m.push_back({std::string(layer) + ".self_frac",
                     root > 0 ? self[layer] / root : 0.0, "ratio"});
    }

    std::sort(fromProbe.begin(), fromProbe.end());
    fromProbe.erase(std::unique(fromProbe.begin(), fromProbe.end()),
                    fromProbe.end());
    std::string list;
    for (const std::string &name : fromProbe)
        list += " " + name;
    std::printf("  (not called by this workload, timed on the probe "
                "scenarios:%s)\n",
                list.empty() ? " none" : list.c_str());
    return m;
}

template <typename Bench>
int
runWorkload(const Args &args, Bench &bench, unsigned threads)
{
    const bool fuzz = args.workload == "fuzz-campaign";
    Layers layers;
    SpanLog *setupLog = args.trace ? &layers.workload : nullptr;

    std::vector<double> setupSeconds;
    const auto timeSetup = [&](unsigned samples) {
        for (unsigned sample = 0; sample < samples; ++sample) {
            const Clock::time_point t0 = Clock::now();
            unsigned reps = 0;
            do {
                bench.setup(setupLog);
                ++reps;
            } while (secondsSince(t0) < SETUP_SAMPLE_S);
            setupSeconds.push_back(secondsSince(t0) / reps);
        }
    };
    timeSetup(SETUP_SAMPLES / 2);

    if (args.writeRef) {
        std::vector<std::string> lines = bench.referenceLines();
        return writeReference(args, bench.params(), lines) ? 0 : 1;
    }

    const Reference ref = Reference::load(args, bench.params());
    std::printf("perfbench %s seed %llu: %u worker(s), output check "
                "against %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), threads,
                ref.exists ? ref.path.c_str()
                           : "held-out rules (no stored reference)");

    bench.warmup(ref);

    Phase phase;
    std::vector<Metric> metrics;
    if (args.trace == 0) {
        phase = bench.timed(args.seconds, ref);
    } else {
        phase = bench.layers(args.seconds / 2, ref, layers);
        fleet::FleetOptions probeBase;
        runProbes(layers.probe, probeBase);
    }
    // Set-up is deterministic, so redoing it leaves the state the output
    // checks below use unchanged.
    timeSetup(SETUP_SAMPLES - SETUP_SAMPLES / 2);
    if (!ref.problem.empty())
        phase.fail(0, ref.path + " does not apply: " + ref.problem);
    bool correct = phase.failed == 0 && phase.failures.empty();
    if (!ref.exists && !bench.verifyHeldOut(phase))
        correct = false;

    for (const std::string &f : phase.failures)
        std::printf("  FAILED: %s\n", f.c_str());
    const double failedFraction =
        phase.units != 0 ? static_cast<double>(phase.failed) / phase.units
                         : 1.0;
    std::printf("  failed_fraction %.6g (%llu of %llu units)\n",
                failedFraction, static_cast<unsigned long long>(phase.failed),
                static_cast<unsigned long long>(phase.units));

    if (args.trace == 0) {
        std::printf("  %llu %s in %.3f s\n",
                    static_cast<unsigned long long>(phase.units),
                    fuzz ? "trials" : "devices", phase.seconds);
        if (fuzz)
            std::printf("  trial_p50_ms %.4f, trial_p95_ms %.4f (%zu "
                        "samples)\n",
                        percentileOf(phase.unitMs, 50),
                        percentileOf(phase.unitMs, 95), phase.unitMs.size());
        metrics.push_back(
            {"setup_s", percentileOf(setupSeconds, 50), "s"});
        metrics.push_back({"throughput_per_s", phase.throughput(), "1/s"});
        metrics.push_back({"simulated_mhz", phase.simulatedMhz(), "MHz"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    } else {
        const fleet::FleetOptions defaults;
        const std::pair<double, double> rates =
            hostKernels(defaults.dramBytes, layers.workload);
        metrics = layerMetrics(layers, rates, fuzz);
        std::printf("  replay: %u of %u sampled units ended on the real "
                    "run's simulated cycle count\n",
                    layers.fidelityMatches, layers.fidelityUnits);
        if (!args.traceOut.empty()) {
            std::vector<const SpanLog *> logs;
            for (const auto &log : layers.workers)
                logs.push_back(log.get());
            if (!writeChromeTrace(args.traceOut, logs))
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             args.traceOut.c_str());
        }
    }
    printResult(correct, phase, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(4u, hw);
    try {
        if (args.workload == "fuzz-campaign") {
            FuzzBench bench(args, threads);
            return runWorkload(args, bench, threads);
        }
        FleetBench bench(args, threads);
        return runWorkload(args, bench, threads);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
