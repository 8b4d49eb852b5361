#include "replay.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "attacks/bus_monitor_attack.hh"
#include "attacks/code_injection.hh"
#include "attacks/cold_boot.hh"
#include "attacks/dma_attack.hh"
#include "attacks/v2/cache_attack.hh"
#include "attacks/v2/rowhammer.hh"
#include "attacks/v2/tz_side_channel.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"
#include "fault/fault.hh"
#include "fault/fault_injector.hh"
#include "os/block_device.hh"
#include "os/buffer_cache.hh"
#include "os/dm_crypt.hh"
#include "os/filebench.hh"

namespace perfbench
{

namespace
{

using namespace sentry;
using fleet::AttackKind;
using fleet::Op;
using fleet::Step;

// The runner's stream constants: a replay that draws from the same
// streams in the same order reaches the same simulated state.
constexpr std::uint64_t WORKLOAD_STREAM = 0xf1ee7a5c0ffee000ULL;
constexpr std::uint64_t INJECTOR_STREAM = 0xfa017a5e5ca1ab1eULL;
constexpr std::uint64_t SALT_V2ATTACK = 0x76325f61747461b1ULL;
constexpr std::uint64_t SALT_BUSKEY = 0x6275736b65795f73ULL;
constexpr unsigned FILEBENCH_WORKERS = 2;

/** The span each attack verb's public run call is timed under. */
std::string_view
attackSpan(AttackKind kind)
{
    switch (kind) {
      case AttackKind::Dma:
        return "attacks.dma";
      case AttackKind::BusMonitor:
        return "attacks.bus_monitor";
      case AttackKind::CodeInjection:
        return "attacks.code_injection";
      case AttackKind::PrimeProbe:
        return "attacks.prime_probe";
      case AttackKind::EvictReload:
        return "attacks.evict_reload";
      case AttackKind::Rowhammer:
        return "attacks.rowhammer";
      case AttackKind::TzSideChannel:
        return "attacks.tz_side_channel";
      default:
        return "attacks.cold_boot";
    }
}

std::optional<core::Threat>
attackThreat(AttackKind kind)
{
    switch (kind) {
      case AttackKind::ColdBootReflash:
      case AttackKind::OsReboot:
      case AttackKind::TwoSecondReset:
        return core::Threat::ColdBoot;
      case AttackKind::Dma:
        return core::Threat::Dma;
      case AttackKind::BusMonitor:
        return core::Threat::BusMonitor;
      case AttackKind::PrimeProbe:
        return core::Threat::PrimeProbe;
      case AttackKind::EvictReload:
        return core::Threat::EvictReload;
      case AttackKind::Rowhammer:
        return core::Threat::Rowhammer;
      case AttackKind::TzSideChannel:
        return core::Threat::TzSideChannel;
      default:
        return std::nullopt;
    }
}

struct ProcInfo
{
    os::Process *process = nullptr;
    VirtAddr heapBase = 0;
    std::size_t heapBytes = 0;
    bool sensitive = false;
    bool background = false;
};

class ReplayRun
{
  public:
    ReplayRun(const fleet::Scenario &scenario,
              const fleet::FleetOptions &options, unsigned index,
              SpanLog *log, std::unique_ptr<core::Device> &parked)
        : scenario_(scenario), options_(options),
          seed_(fleet::fleetDeviceSeed(options.seed, index)),
          workloadRng_(seed_ ^ WORKLOAD_STREAM), log_(log), parked_(parked)
    {}

    ReplayOutcome
    run()
    {
        ReplayOutcome out;
        try {
            boot();
            for (const Step &step : scenario_.steps) {
                if (injector_) {
                    injector_->beginStep();
                    if (powerGlitch(out))
                        break;
                }
                executeStep(step, out);
                audit(step, out);
            }
        } catch (const std::exception &e) {
            fail(out, e.what());
        }
        if (device_) {
            finish(out);
            if (options_.spawnMode == fleet::SpawnMode::Snapshot)
                parked_ = std::move(device_);
        }
        return out;
    }

  private:
    static void
    fail(ReplayOutcome &out, const std::string &what)
    {
        if (out.ok)
            out.error = what;
        out.ok = false;
    }

    void
    boot()
    {
        hw::PlatformConfig config =
            options_.platform == fleet::FleetPlatform::Tegra3
                ? hw::PlatformConfig::tegra3(options_.dramBytes)
                : hw::PlatformConfig::nexus4(options_.dramBytes);
        config.seed = seed_;
        core::SentryOptions sentryOptions;
        sentryOptions.placement = core::AesPlacement::LockedL2;
        sentryOptions.backgroundMode = scenario_.needsBackground();
        sentryOptions.pagerWays = 2;
        sentryOptions.defense = options_.defense;

        if (options_.spawnMode == fleet::SpawnMode::Snapshot) {
            if (!options_.templateSnapshot)
                throw std::runtime_error("snapshot replay without template");
            if (parked_) {
                device_ = std::move(parked_);
            } else {
                Span span(log_, "core.deviceConstruct");
                device_ =
                    std::make_unique<core::Device>(config, sentryOptions);
            }
            Span span(log_, "core.forkFrom");
            device_->forkFrom(*options_.templateSnapshot);
            device_->soc().rng().reseed(seed_);
        } else {
            Span span(log_, "core.coldBoot");
            device_ = std::make_unique<core::Device>(config, sentryOptions);
            device_->sentry().registerCryptoProviders();
        }
        enableRowPartition();
        checker_ = std::make_unique<core::InvariantChecker>(
            device_->kernel(), device_->sentry());
        if (options_.faultSchedule != nullptr &&
            !options_.faultSchedule->empty()) {
            Span span(log_, "fault.arm");
            injector_ = std::make_unique<fault::FaultInjector>(
                *options_.faultSchedule, seed_ ^ INJECTOR_STREAM);
            injector_->arm(device_->soc());
        }
        counters_.attach(device_->soc().trace());
    }

    void
    enableRowPartition()
    {
        const bool hammers = std::any_of(
            scenario_.steps.begin(), scenario_.steps.end(),
            [](const Step &step) {
                return step.op == Op::Attack &&
                       step.attack == AttackKind::Rowhammer;
            });
        if (!hammers || !defense().defeats(core::Threat::Rowhammer))
            return;
        hw::Dram &dram = device_->soc().dram();
        const hw::DramGeometry &geom = dram.geometry();
        const std::size_t rowsPerBank = geom.rowsPerBank(dram.size());
        if (rowsPerBank < 8)
            return;
        os::RowPartition plan;
        plan.rowBytes = geom.rowBytes;
        plan.banks = geom.banks;
        plan.victimRowLimit = rowsPerBank * 3 / 4;
        plan.guardRows = 1;
        plan.geomBase = DRAM_BASE;
        device_->kernel().allocator().partitionRows(plan);
    }

    bool
    powerGlitch(ReplayOutcome &out)
    {
        const std::vector<fault::FaultSpec> due = injector_->dueStepFaults();
        if (due.empty())
            return false;
        const bool wasLocked = locked();
        hw::Soc &soc = device_->soc();
        for (const fault::FaultSpec &spec : due) {
            Span span(log_, "hw.powerCycle");
            soc.powerCycle(spec.seconds);
        }
        coldBooted_ = true;
        {
            Span span(log_, "core.checkIramZeroed");
            const core::CheckOutcome iram = checker_->checkIramZeroed(soc);
            if (!iram.ok)
                fail(out, "power glitch: " + iram.detail);
        }
        if (wasLocked) {
            Span span(log_, "core.checkDumps");
            const core::DumpLeaks leaks =
                checker_->checkDumps(soc.dramRaw(), soc.iramRaw());
            if (leaks.sensitiveLeaked != 0)
                fail(out, "power glitch left a sensitive secret in "
                          "remanent memory");
        }
        return true;
    }

    double
    jitterFactor()
    {
        if (scenario_.jitter <= 0.0)
            return 1.0;
        return 1.0 - scenario_.jitter +
               2.0 * scenario_.jitter * workloadRng_.uniform();
    }

    std::size_t
    jitterBytes(std::size_t bytes, std::size_t quantum)
    {
        const auto scaled = static_cast<std::size_t>(
            static_cast<double>(bytes) * jitterFactor());
        return std::max(quantum, alignUp(scaled, quantum));
    }

    bool
    locked() const
    {
        return device_->kernel().powerState() != os::PowerState::Awake;
    }

    core::DefenseBackend &defense() { return device_->sentry().defense(); }

    [[noreturn]] static void
    stepError(const Step &step, const std::string &what)
    {
        throw std::runtime_error("line " + std::to_string(step.line) +
                                 ": " + what);
    }

    void
    executeStep(const Step &step, ReplayOutcome &out)
    {
        if (coldBooted_ && step.op != Op::Attack && step.op != Op::Sleep)
            stepError(step, "device was cold-booted");
        os::Kernel &kernel = device_->kernel();
        switch (step.op) {
          case Op::Spawn: {
            Span span(log_, "os.spawn");
            spawn(step);
            break;
          }
          case Op::Lock: {
            Span span(log_, "core.lockScreen");
            kernel.lockScreen();
            break;
          }
          case Op::Unlock: {
            Span span(log_, "core.unlockScreen");
            kernel.unlockScreen(step.pin);
            break;
          }
          case Op::Sleep:
            device_->soc().clock().advanceSeconds(step.seconds *
                                                  jitterFactor());
            break;
          case Op::Suspend: {
            const double seconds = step.seconds * jitterFactor();
            Span span(log_, "os.suspendToRam");
            kernel.suspendToRam(seconds);
            break;
          }
          case Op::Wake: {
            Span span(log_, "os.wakeUp");
            kernel.wakeUp(os::WakeReason::UserInteraction);
            break;
          }
          case Op::Touch:
            touch(step);
            break;
          case Op::Filebench:
            filebench(step);
            break;
          case Op::Attack:
            attack(step, out);
            break;
          case Op::ZeroFreed: {
            Span span(log_, "os.zeroFreedPages");
            kernel.zeroFreedPages();
            break;
          }
        }
    }

    void
    spawn(const Step &step)
    {
        os::Kernel &kernel = device_->kernel();
        os::Process &process = kernel.createProcess(step.name);
        const os::Vma &heap =
            kernel.addVma(process, "heap", os::VmaType::Heap,
                          jitterBytes(step.bytes, PAGE_SIZE));
        ProcInfo info;
        info.process = &process;
        info.heapBase = heap.base;
        info.heapBytes = heap.size;
        info.sensitive = step.sensitive;
        info.background = step.background;
        std::vector<std::uint8_t> secret(16);
        for (auto &byte : secret)
            byte = static_cast<std::uint8_t>(workloadRng_.next64());
        for (std::size_t off = 0; off < heap.size; off += PAGE_SIZE)
            kernel.writeVirt(process, heap.base + off, secret.data(),
                             secret.size());
        if (step.dmaBytes != 0) {
            const os::Vma &dma =
                kernel.addVma(process, "dma", os::VmaType::DmaRegion,
                              jitterBytes(step.dmaBytes, PAGE_SIZE));
            for (std::size_t off = 0; off < dma.size; off += PAGE_SIZE)
                kernel.writeVirt(process, dma.base + off, secret.data(),
                                 secret.size());
        }
        if (step.sensitive)
            device_->sentry().markSensitive(process);
        if (step.background)
            device_->sentry().markBackground(process);
        checker_->addMarker({step.name, secret, step.sensitive});
        procs_.emplace(step.name, info);
    }

    void
    touch(const Step &step)
    {
        const ProcInfo &info = procs_.at(step.name);
        if (locked() && info.sensitive && !info.background)
            stepError(step, "touch of parked sensitive process '" +
                                step.name + "' while locked");
        const std::size_t len =
            std::min(jitterBytes(step.bytes, PAGE_SIZE), info.heapBytes);
        Span span(log_, "os.touchRange");
        device_->kernel().touchRange(*info.process, info.heapBase, len);
    }

    void
    filebench(const Step &step)
    {
        hw::Soc &soc = device_->soc();
        const std::size_t ioBytes = jitterBytes(step.bytes, 4 * KiB);
        const std::size_t partition =
            std::max<std::size_t>(4 * MiB, 2 * ioBytes);
        std::vector<std::uint8_t> key(16);
        for (auto &byte : key)
            byte = static_cast<std::uint8_t>(workloadRng_.next64());
        Span span(log_, "os.filebench");
        os::RamBlockDevice disk(soc.clock(), partition);
        os::DmCrypt dm(disk,
                       device_->kernel().cryptoApi().allocCipher("aes", key),
                       FILEBENCH_WORKERS);
        os::BufferCache cache(soc.clock(), dm, partition / 2);
        os::Filebench bench(soc.clock(), cache, partition / 2);
        Rng ioRng(workloadRng_.next64());
        bench.run(step.workload, ioBytes, step.directIo, ioRng);
    }

    void
    checkDumps(const std::vector<std::uint8_t> &dram,
               const std::vector<std::uint8_t> &iram, AttackKind kind,
               const Step &step, ReplayOutcome &out)
    {
        Span span(log_, "core.checkDumps");
        const core::DumpLeaks leaks = checker_->checkDumps(dram, iram);
        if (leaks.sensitiveLeaked != 0 && claimed(kind))
            fail(out, "line " + std::to_string(step.line) +
                          ": attack recovered a sensitive secret");
    }

    bool
    claimed(AttackKind kind)
    {
        const std::optional<core::Threat> threat = attackThreat(kind);
        return !threat.has_value() || defense().defeats(*threat);
    }

    void
    attack(const Step &step, ReplayOutcome &out)
    {
        if (!locked())
            stepError(step, "attack against an awake device");
        ++attacksRun_;
        hw::Soc &soc = device_->soc();
        std::vector<std::uint8_t> dramDump, iramDump;
        {
            Span span(log_, attackSpan(step.attack));
            switch (step.attack) {
              case AttackKind::PrimeProbe:
              case AttackKind::EvictReload:
                cacheAttack(step);
                return;
              case AttackKind::Rowhammer:
                rowhammer();
                return;
              case AttackKind::TzSideChannel:
                tzSideChannel();
                return;
              case AttackKind::Dma: {
                attacks::DmaAttack dma;
                dramDump = dma.dumpRange(soc, DRAM_BASE, soc.dramRaw().size());
                iramDump = dma.dumpRange(soc, IRAM_BASE, soc.iramRaw().size());
                break;
              }
              case AttackKind::BusMonitor:
                busMonitor(dramDump, iramDump);
                break;
              case AttackKind::CodeInjection: {
                attacks::CodeInjectionAttack inject;
                const std::vector<std::uint8_t> payload(64, 0xCC);
                inject.injectViaDma(soc, IRAM_BASE + IRAM_FIRMWARE_RESERVED,
                                    payload, "on-SoC crypto state");
                const std::vector<std::uint8_t> evilImage(256, 0x90);
                inject.replaceFirmware(soc, evilImage);
                return;
              }
              default: {
                attacks::ColdBootVariant variant =
                    attacks::ColdBootVariant::DeviceReflash;
                if (step.attack == AttackKind::OsReboot)
                    variant = attacks::ColdBootVariant::OsReboot;
                else if (step.attack == AttackKind::TwoSecondReset)
                    variant = attacks::ColdBootVariant::TwoSecondReset;
                const attacks::ColdBootAttack attack(
                    variant, step.frozen ? -18.0 : 22.0);
                attack.performReset(soc);
                coldBooted_ = true;
                const auto dram = soc.dramRaw();
                const auto iram = soc.iramRaw();
                dramDump.assign(dram.begin(), dram.end());
                iramDump.assign(iram.begin(), iram.end());
                break;
              }
            }
        }
        checkDumps(dramDump, iramDump, step.attack, step, out);
    }

    void
    busMonitor(std::vector<std::uint8_t> &dramDump,
               std::vector<std::uint8_t> &iramDump)
    {
        hw::Soc &soc = device_->soc();
        attacks::BusMonitorAttack probe(soc);
        probe.startCapture();
        soc.l2().cleanAllMasked();
        attacks::DmaAttack dma;
        dramDump = dma.dumpRange(soc, DRAM_BASE, soc.dramRaw().size());
        iramDump = dma.dumpRange(soc, IRAM_BASE, soc.iramRaw().size());
        for (const core::SecretMarker &marker : checker_->markers()) {
            if (marker.sensitive)
                probe.analyzeForSecret(marker.bytes, marker.owner);
        }
        crypto::SimAesEngine *dramEngine = defense().dramStateEngine();
        if (dramEngine != nullptr) {
            Rng sideRng(fleet::samplePriority(seed_, SALT_BUSKEY,
                                              attacksRun_ - 1));
            probe.recoverAesKeyBits(*dramEngine, /*num_blocks=*/48, sideRng);
        }
    }

    void
    cacheAttack(const Step &step)
    {
        hw::Soc &soc = device_->soc();
        ++v2Run_;
        const std::uint64_t atkSeed =
            fleet::samplePriority(seed_, SALT_V2ATTACK, v2Run_);
        core::LockedWayManager &ways = device_->sentry().wayManager();
        const std::uint32_t lockedMask = ways.lockedMask();
        crypto::SimAesEngine *dramEngine = defense().dramStateEngine();
        const PhysAddr victim =
            dramEngine != nullptr
                ? dramEngine->stateBase()
                : (lockedMask != 0
                       ? ways.wayWindowBase(static_cast<unsigned>(
                             std::countr_zero(lockedMask)))
                       : IRAM_BASE + IRAM_FIRMWARE_RESERVED + 4 * KiB);
        attacks::v2::CacheAttackConfig config;
        config.victimAddr = victim;
        const std::size_t span =
            (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
        config.attackerBase = soc.dramEnd() - span;
        config.attackerSpan = span;
        const attacks::v2::VictimFn victimFn = [victim](hw::Soc &s) {
            std::uint8_t buf[4];
            s.memory().read(victim, buf, sizeof buf);
        };
        if (step.attack == AttackKind::PrimeProbe) {
            attacks::v2::PrimeProbeAttack attack(config, victimFn, atkSeed);
            attack.run(soc);
        } else {
            attacks::v2::EvictReloadAttack attack(config, victimFn, atkSeed);
            attack.run(soc);
        }
    }

    void
    rowhammer()
    {
        hw::Soc &soc = device_->soc();
        ++v2Run_;
        const std::uint64_t atkSeed =
            fleet::samplePriority(seed_, SALT_V2ATTACK, v2Run_);
        os::PhysAllocator &alloc = device_->kernel().allocator();
        const bool claimedThreat = defense().defeats(core::Threat::Rowhammer);
        std::vector<PhysAddr> frames;
        if (alloc.rowPartition().enabled() || !claimedThreat) {
            const os::MemDomain domain = alloc.rowPartition().enabled()
                                             ? os::MemDomain::Attacker
                                             : os::MemDomain::Default;
            for (unsigned i = 0; i < 4; ++i) {
                const PhysAddr frame = alloc.tryAllocFrame(domain);
                if (frame == 0)
                    break;
                frames.push_back(frame);
            }
        }
        attacks::v2::RowhammerConfig config;
        config.aggressors = frames;
        attacks::v2::RowhammerAttack attack(std::move(config), atkSeed);
        attack.run(soc);
        for (const PhysAddr frame : frames)
            alloc.freeFrame(frame);
    }

    void
    tzSideChannel()
    {
        hw::Soc &soc = device_->soc();
        ++v2Run_;
        const std::uint64_t atkSeed =
            fleet::samplePriority(seed_, SALT_V2ATTACK, v2Run_);
        os::PhysAllocator &alloc = device_->kernel().allocator();
        const bool hardened = defense().defeats(core::Threat::TzSideChannel);
        const PhysAddr mailbox = alloc.tryAllocFrame(os::MemDomain::Default);
        if (mailbox == 0)
            return;
        {
            attacks::v2::TzSecretService service(soc, mailbox, hardened);
            attacks::v2::TzSideChannelConfig config;
            const std::size_t span =
                (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
            config.attackerBase = soc.dramEnd() - span;
            config.attackerSpan = span;
            attacks::v2::TzSideChannelAttack attack(config, service, atkSeed);
            attack.run(soc);
        }
        alloc.freeFrame(mailbox);
    }

    void
    audit(const Step &step, ReplayOutcome &out)
    {
        if (coldBooted_)
            return;
        if (!options_.auditEveryStep && step.op != Op::Attack &&
            step.op != Op::Lock && step.op != Op::Unlock &&
            step.op != Op::Suspend)
            return;
        Span span(log_, "core.checkLive");
        const core::CheckOutcome outcome = checker_->checkLive();
        ++out.audits;
        if (!outcome.ok)
            fail(out, "line " + std::to_string(step.line) +
                          ": audit failed after step: " + outcome.detail);
    }

    void
    finish(ReplayOutcome &out)
    {
        hw::Soc &soc = device_->soc();
        out.simCycles = soc.clock().now();
        out.l2Hits = soc.l2().stats().hits;
        out.l2Misses = soc.l2().stats().misses;
        out.busOps = soc.bus().stats().reads + soc.bus().stats().writes;
        const probe::TraceCounters &t = counters_.counters();
        out.traceRecords = t.memOps() + t.busOps() + t.cacheWritebacks +
                           t.kcryptdBlocks + t.powerEvents;
        const core::SentryStats &stats = device_->sentry().stats();
        out.pageFaults = stats.faultsServiced;
        out.bytesEncryptedOnLock = stats.bytesEncryptedOnLock;
        out.bytesDecryptedOnDemand = stats.bytesDecryptedOnDemand;
        out.bytesDecryptedEager = stats.bytesDecryptedEager;
        if (injector_)
            out.faultFirings = injector_->stats().firings;
        // Unsubscribe before the device can be parked or destroyed.
        injector_.reset();
        counters_.detach();
    }

    const fleet::Scenario &scenario_;
    const fleet::FleetOptions &options_;
    std::uint64_t seed_;
    Rng workloadRng_;
    SpanLog *log_;
    std::unique_ptr<core::Device> &parked_;

    std::unique_ptr<core::Device> device_;
    std::unique_ptr<core::InvariantChecker> checker_;
    std::unique_ptr<fault::FaultInjector> injector_;
    probe::CounterSink counters_;
    std::map<std::string, ProcInfo> procs_;
    unsigned attacksRun_ = 0;
    std::uint64_t v2Run_ = 0;
    bool coldBooted_ = false;
};

} // namespace

ReplayOutcome &
ReplayOutcome::operator+=(const ReplayOutcome &other)
{
    simCycles += other.simCycles;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    busOps += other.busOps;
    traceRecords += other.traceRecords;
    faultFirings += other.faultFirings;
    pageFaults += other.pageFaults;
    audits += other.audits;
    bytesEncryptedOnLock += other.bytesEncryptedOnLock;
    bytesDecryptedOnDemand += other.bytesDecryptedOnDemand;
    bytesDecryptedEager += other.bytesDecryptedEager;
    return *this;
}

Replayer::Replayer() = default;
Replayer::~Replayer() = default;

ReplayOutcome
Replayer::run(const sentry::fleet::Scenario &scenario,
              const sentry::fleet::FleetOptions &options, unsigned index,
              std::string_view root, SpanLog *log)
{
    if (log != nullptr)
        log->setUnit(index);
    Span span(log, root);
    return ReplayRun(scenario, options, index, log, parked_).run();
}

} // namespace perfbench
