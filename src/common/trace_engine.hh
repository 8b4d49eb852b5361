/**
 * @file
 * The per-Soc TraceEngine that fans typed trace points (common/probe.hh)
 * out to subscribers, plus two stock sinks: a passive per-device counter
 * accumulator (CounterSink) and a chrome://tracing timeline dumper
 * (ChromeTraceSink).
 *
 * Two subscription classes exist, served in this order at each emit:
 *
 *   - synchronous Subscribers are called inline at the emission site, in
 *     subscription order — the fault injector subscribes at arm time
 *     (before any attack probe or timeline sink), so fault effects are
 *     applied before monitors record the transaction, and response
 *     channels (BusTransfer::extraWrites, KcryptdOp::stallSeconds) are
 *     final by the time later subscribers read them;
 *
 *   - one counting subscription (a CounterSink's TraceCounters) is
 *     tallied inline in emit(), after the synchronous pass: one
 *     increment, or one add for the byte and double fields, per event.
 *     It builds no record and reads no clock, so with only a counter
 *     attached an emission costs the guard, the payload and the tally.
 *
 * The *disabled* cost stays one pointer load plus one bit test.
 */

#ifndef SENTRY_COMMON_TRACE_ENGINE_HH
#define SENTRY_COMMON_TRACE_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/probe.hh"

namespace sentry
{
class SimClock;
}

namespace sentry::probe
{

/** Passive per-device totals accumulated from every trace-point kind. */
struct TraceCounters
{
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t iramReads = 0;
    std::uint64_t iramWrites = 0;
    std::uint64_t busReads = 0;
    std::uint64_t busWrites = 0;
    std::uint64_t busDuplicates = 0;
    std::uint64_t busReadBytes = 0;
    std::uint64_t busWriteBytes = 0;
    std::uint64_t cacheWritebacks = 0;
    std::uint64_t powerEvents = 0;
    double joules = 0.0;
    std::uint64_t dmaBursts = 0;
    std::uint64_t dmaBytes = 0;
    std::uint64_t cryptoOps = 0;
    std::uint64_t cryptoBytes = 0;
    std::uint64_t kcryptdBlocks = 0;
    double kcryptdStallSeconds = 0.0;

    // One tally per payload type, called by TraceEngine::emit after the
    // synchronous pass (response fields are final). The two doubles are
    // added in emission order.
    void
    count(const MemAccess &event)
    {
        if (event.device == MemAccess::Device::Dram)
            ++(event.isWrite ? dramWrites : dramReads);
        else
            ++(event.isWrite ? iramWrites : iramReads);
    }

    void
    count(const BusTransfer &event)
    {
        if (event.duplicate)
            ++busDuplicates;
        if (event.isWrite) {
            ++busWrites;
            busWriteBytes += event.size;
        } else {
            ++busReads;
            busReadBytes += event.size;
        }
    }

    void count(const CacheEvent &) { ++cacheWritebacks; }

    void
    count(const PowerEvent &event)
    {
        ++powerEvents;
        joules += event.joules;
    }

    void
    count(const DmaBurst &event)
    {
        ++dmaBursts;
        dmaBytes += event.len;
    }

    void
    count(const CryptoOp &event)
    {
        ++cryptoOps;
        cryptoBytes += event.bytes;
    }

    void
    count(const KcryptdOp &event)
    {
        ++kcryptdBlocks;
        kcryptdStallSeconds += event.stallSeconds;
    }

    /** @return DRAM + iRAM accesses of either direction. */
    std::uint64_t
    memOps() const
    {
        return dramReads + dramWrites + iramReads + iramWrites;
    }

    /** @return bus transactions of either direction (incl. duplicates). */
    std::uint64_t busOps() const { return busReads + busWrites; }

    /** Sum another device's counters into this one (commutative for
     * the integer fields; the two double fields are plain sums). */
    TraceCounters &
    operator+=(const TraceCounters &other)
    {
        dramReads += other.dramReads;
        dramWrites += other.dramWrites;
        iramReads += other.iramReads;
        iramWrites += other.iramWrites;
        busReads += other.busReads;
        busWrites += other.busWrites;
        busDuplicates += other.busDuplicates;
        busReadBytes += other.busReadBytes;
        busWriteBytes += other.busWriteBytes;
        cacheWritebacks += other.cacheWritebacks;
        powerEvents += other.powerEvents;
        joules += other.joules;
        dmaBursts += other.dmaBursts;
        dmaBytes += other.dmaBytes;
        cryptoOps += other.cryptoOps;
        cryptoBytes += other.cryptoBytes;
        kcryptdBlocks += other.kcryptdBlocks;
        kcryptdStallSeconds += other.kcryptdStallSeconds;
        return *this;
    }

    /** @return one-line "k:v k:v ..." rendering (stable field order). */
    std::string summary() const;
};

/**
 * Receiver interface for trace points. Override only the kinds you
 * subscribe to; the defaults ignore the event.
 *
 * Payloads are passed by non-const reference so response channels
 * (BusTransfer::extraWrites, KcryptdOp::stallSeconds) can be filled.
 */
class Subscriber
{
  public:
    virtual ~Subscriber() = default;

    virtual void onMemAccess(MemAccess &event) { (void)event; }
    virtual void onBusTransfer(BusTransfer &event) { (void)event; }
    virtual void onCacheEvent(CacheEvent &event) { (void)event; }
    virtual void onPowerEvent(PowerEvent &event) { (void)event; }
    virtual void onDmaBurst(DmaBurst &event) { (void)event; }
    virtual void onCryptoOp(CryptoOp &event) { (void)event; }
    virtual void onKcryptdOp(KcryptdOp &event) { (void)event; }
};

/**
 * Fan-out point for one simulated machine. Every device of a Soc holds
 * a pointer to its engine and guards each emission site with
 * `enabled(kind)` — one load plus one bit test when nobody listens.
 */
class TraceEngine
{
  public:
    /**
     * Attach @p sub for the kinds in @p mask. Subscribing an already
     * attached subscriber replaces its mask.
     */
    void subscribe(Subscriber *sub, TraceMask mask);

    /** Detach @p sub (no-op when it is not attached). */
    void unsubscribe(Subscriber *sub);

    /** @return true when at least one subscriber wants @p kind. */
    bool
    enabled(TraceKind kind) const
    {
        return (activeMask_ & maskOf(kind)) != 0;
    }

    /** @return true when any subscriber is attached at all. */
    bool anyEnabled() const { return activeMask_ != 0; }

    /** @return number of attached subscribers (both classes). */
    std::size_t
    subscriberCount() const
    {
        return entries_.size() + (counting_ != nullptr ? 1 : 0);
    }

    /**
     * Make @p counters the engine's counting subscription: every kind
     * is tallied into it inline at each emit. An engine has at most one;
     * attaching a second while one is attached panics.
     */
    void attachCounters(TraceCounters *counters);

    /** Drop @p counters as the counting subscription (no-op when it is
     * not the attached one). */
    void detachCounters(const TraceCounters *counters);

    void emit(MemAccess &event) { emitAs(TraceKind::MemAccess, event); }
    void emit(BusTransfer &event) { emitAs(TraceKind::BusTransfer, event); }
    void emit(CacheEvent &event) { emitAs(TraceKind::CacheEvent, event); }
    void emit(PowerEvent &event) { emitAs(TraceKind::PowerEvent, event); }
    void emit(DmaBurst &event) { emitAs(TraceKind::DmaBurst, event); }
    void emit(CryptoOp &event) { emitAs(TraceKind::CryptoOp, event); }
    void emit(KcryptdOp &event) { emitAs(TraceKind::KcryptdOp, event); }

  private:
    struct Entry
    {
        Subscriber *sub;
        TraceMask mask;
    };

    /**
     * The synchronous pass, out of line and only when a subscriber
     * wants @p kind; the tally last, so it sees final response fields
     * and follows any events a callback emitted re-entrantly.
     */
    template <typename Payload>
    void
    emitAs(TraceKind kind, Payload &event)
    {
        if ((syncMask_ & maskOf(kind)) != 0)
            dispatch(event);
        if (counting_ != nullptr)
            counting_->count(event);
    }

    void dispatch(MemAccess &event);
    void dispatch(BusTransfer &event);
    void dispatch(CacheEvent &event);
    void dispatch(PowerEvent &event);
    void dispatch(DmaBurst &event);
    void dispatch(CryptoOp &event);
    void dispatch(KcryptdOp &event);

    void recomputeMask();

    std::vector<Entry> entries_;
    TraceCounters *counting_ = nullptr;
    TraceMask syncMask_ = 0;
    TraceMask activeMask_ = 0; //!< syncMask_, or all when counting
};

/**
 * The engine's counting subscription, as a sink object: owns the
 * TraceCounters the engine tallies into. Deterministic: totals depend
 * only on the simulated event stream, never on host timing or on
 * whether a timeline sink is attached.
 */
class CounterSink
{
  public:
    CounterSink() = default;
    ~CounterSink() { detach(); }

    // The engine holds the address of counters_ while attached.
    CounterSink(const CounterSink &) = delete;
    CounterSink &operator=(const CounterSink &) = delete;

    /** Count every kind on @p engine (detaches from any prior). */
    void attach(TraceEngine &engine);

    /** Stop counting (no-op when unattached). */
    void detach();

    /** @return the totals so far (always current: counting is inline). */
    const TraceCounters &counters() const { return counters_; }

    void reset() { counters_ = TraceCounters{}; }

  private:
    TraceEngine *engine_ = nullptr;
    TraceCounters counters_;
};

/**
 * Synchronous sink that records a bounded timeline of instant events
 * and writes them as chrome://tracing JSON (load via chrome://tracing
 * or https://ui.perfetto.dev). Timestamps are *simulated* microseconds,
 * read from the clock given to attach() when each event arrives.
 *
 * Ordering rule: attach the sink after every subscriber that fills a
 * response channel (the fault injector), so each event is recorded
 * with its final extraWrites/stallSeconds, and events such a
 * subscriber emits re-entrantly land before the event that caused
 * them. Subscribers attached later must only observe.
 *
 * With an auto-dump path set, the sink also writes its timeline from
 * the destructor and from the panic() crash path, so a fleet run that
 * dies on an invariant failure still leaves a loadable trace file.
 */
class ChromeTraceSink : public Subscriber
{
  public:
    /** @param maxEvents hard cap; later events are dropped (truncated()). */
    explicit ChromeTraceSink(std::size_t maxEvents = 1u << 20)
        : maxEvents_(maxEvents)
    {}

    ~ChromeTraceSink() override;

    /**
     * Subscribe to @p engine for the kinds in @p mask, stamping events
     * from @p clock (ts 0 when null).
     */
    void attach(TraceEngine &engine, const SimClock *clock,
                TraceMask mask = TRACE_ALL);

    /** Unsubscribe (no-op when unattached). */
    void detach();

    /**
     * Arrange for the timeline to be written to @p path when this sink
     * is destroyed or when panic() aborts the process, whichever comes
     * first (an explicit writeJson() to any path disarms neither; the
     * dump simply records whatever has been captured so far).
     */
    void setAutoDump(const std::string &path);

    /** Write the recorded timeline; @return false on I/O failure. */
    bool writeJson(const std::string &path) const;

    /** @return captured events. */
    std::size_t eventCount() const { return events_.size(); }

    bool truncated() const { return truncated_; }

    void onMemAccess(MemAccess &event) override;
    void onBusTransfer(BusTransfer &event) override;
    void onCacheEvent(CacheEvent &event) override;
    void onPowerEvent(PowerEvent &event) override;
    void onDmaBurst(DmaBurst &event) override;
    void onCryptoOp(CryptoOp &event) override;
    void onKcryptdOp(KcryptdOp &event) override;

  private:
    struct Event
    {
        TraceKind kind;
        double tsUs;        //!< simulated microseconds
        std::uint64_t arg0; //!< addr / way / bytes (kind-dependent)
        std::uint64_t arg1; //!< len / flags (kind-dependent)
        double argF;        //!< joules / stall seconds
        bool flag;          //!< isWrite / wayLocked / encrypt / duplicate
    };

    static void crashHook(void *self);
    /** Append one event stamped now, or mark the timeline truncated. */
    void record(TraceKind kind, std::uint64_t arg0, std::uint64_t arg1,
                double argF, bool flag);

    TraceEngine *engine_ = nullptr;
    const SimClock *clock_ = nullptr;
    std::size_t maxEvents_;
    bool truncated_ = false;
    std::string autoDumpPath_;
    std::vector<Event> events_;
};

} // namespace sentry::probe

#endif // SENTRY_COMMON_TRACE_ENGINE_HH
