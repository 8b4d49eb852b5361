/**
 * @file
 * Span-instrumented replay of one fleet device or fuzz trial.
 *
 * fleet::runDevice runs a device's whole scenario inside the library,
 * where the benchmark cannot see its layers. The replayer re-executes
 * the same unit step by step through the public functions
 * device_runner.cc calls (Device construction or forkFrom, the
 * injector, os::Kernel, core::InvariantChecker, the attack classes,
 * hw::Soc::powerCycle), wrapping each call in a span. It consumes the
 * per-device random streams in the same order as the runner, so a
 * replayed unit normally ends on the same simulated cycle count as the
 * real run; the traced run reports how many did.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/types.hh"
#include "fleet/device_runner.hh"
#include "spans.hh"

namespace sentry::core
{
class Device;
}

namespace perfbench
{

/** What a replayed unit did, for counters and fidelity checks. */
struct ReplayOutcome
{
    bool ok = true;
    std::string error;
    sentry::Cycles simCycles = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t busOps = 0;
    std::uint64_t traceRecords = 0; //!< every CounterSink event kind
    std::uint64_t faultFirings = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t audits = 0;
    std::uint64_t bytesEncryptedOnLock = 0;
    std::uint64_t bytesDecryptedOnDemand = 0;
    std::uint64_t bytesDecryptedEager = 0;

    /** Sum @p other's counters into this one (flags are ignored). */
    ReplayOutcome &operator+=(const ReplayOutcome &other);
};

/** One worker's replayer; recycles its device across snapshot units. */
class Replayer
{
  public:
    Replayer();
    ~Replayer();
    Replayer(const Replayer &) = delete;
    Replayer &operator=(const Replayer &) = delete;

    /**
     * Replay device @p index of a fleet run with the already-resolved
     * @p options (see fleet::resolveFleetOptions). The unit's root span
     * is named @p root. Never throws.
     */
    ReplayOutcome run(const sentry::fleet::Scenario &scenario,
                      const sentry::fleet::FleetOptions &options,
                      unsigned index, std::string_view root, SpanLog *log);

  private:
    std::unique_ptr<sentry::core::Device> parked_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
