#include "common/trace_engine.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/sim_clock.hh"

namespace sentry::probe
{

void
TraceEngine::subscribe(Subscriber *sub, TraceMask mask)
{
    for (Entry &e : entries_) {
        if (e.sub == sub) {
            e.mask = mask;
            recomputeMask();
            return;
        }
    }
    entries_.push_back({sub, mask});
    recomputeMask();
}

void
TraceEngine::unsubscribe(Subscriber *sub)
{
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [sub](const Entry &e) {
                                      return e.sub == sub;
                                  }),
                   entries_.end());
    recomputeMask();
}

void
TraceEngine::subscribeBatched(BatchSubscriber *sub, TraceMask mask)
{
    flushPending();
    for (BatchEntry &e : batchEntries_) {
        if (e.sub == sub) {
            e.mask = mask;
            recomputeMask();
            return;
        }
    }
    batchEntries_.push_back({sub, mask});
    recomputeMask();
}

void
TraceEngine::unsubscribeBatched(BatchSubscriber *sub)
{
    flushPending();
    batchEntries_.erase(std::remove_if(batchEntries_.begin(),
                                       batchEntries_.end(),
                                       [sub](const BatchEntry &e) {
                                           return e.sub == sub;
                                       }),
                        batchEntries_.end());
    recomputeMask();
}

void
TraceEngine::attachCounters(TraceCounters *counters)
{
    if (counting_ != nullptr && counting_ != counters)
        panic("trace engine already has a counting subscription");
    counting_ = counters;
    recomputeMask();
}

void
TraceEngine::detachCounters(const TraceCounters *counters)
{
    if (counting_ == counters) {
        counting_ = nullptr;
        recomputeMask();
    }
}

void
TraceEngine::recomputeMask()
{
    syncMask_ = 0;
    for (const Entry &e : entries_)
        syncMask_ |= e.mask;
    batchMask_ = 0;
    for (const BatchEntry &e : batchEntries_)
        batchMask_ |= e.mask;
    dispatchMask_ = syncMask_ | batchMask_;
    activeMask_ = dispatchMask_ | (counting_ != nullptr ? TRACE_ALL : 0);
}

void
TraceEngine::setBatchCapacity(std::size_t capacity)
{
    flushPending();
    capacity_ = capacity == 0 ? 1 : capacity;
}

void
TraceEngine::flushSlow()
{
    // Swap the ring out so records a subscriber emits indirectly while
    // consuming (e.g. a sink read that triggers simulated work) land in
    // a fresh buffer instead of invalidating the one being walked.
    std::vector<TraceRecord> batch;
    batch.swap(pending_);
    for (const BatchEntry &e : batchEntries_) {
        // Hand over maximal runs of wanted records (the whole batch, for
        // a sink subscribed to everything) without a filtering copy.
        std::size_t runStart = 0;
        for (std::size_t i = 0; i <= batch.size(); ++i) {
            const bool wanted =
                i < batch.size() && (e.mask & maskOf(batch[i].kind)) != 0;
            if (!wanted) {
                if (i > runStart)
                    e.sub->onRecords(batch.data() + runStart, i - runStart);
                runStart = i + 1;
            }
        }
    }
    // Give the allocation back to the ring (unless an indirect emission
    // already started refilling it).
    if (pending_.empty()) {
        batch.clear();
        batch.swap(pending_);
    }
}

TraceRecord &
TraceEngine::appendRecord(TraceKind kind)
{
    pending_.emplace_back();
    TraceRecord &rec = pending_.back();
    rec.kind = kind;
    rec.tsUs = clock_ != nullptr ? clock_->seconds() * 1e6 : 0.0;
    return rec;
}

void
TraceEngine::commitRecord()
{
    if (pending_.size() >= capacity_)
        flushSlow();
}

namespace
{

/** The payload as stored in a TraceRecord: records outlive the emit, so
 *  BusTransfer's payload pointer (valid only during the synchronous
 *  callbacks) is dropped. */
template <typename Payload>
const Payload &
snapshotOf(const Payload &event)
{
    return event;
}

BusTransfer
snapshotOf(const BusTransfer &event)
{
    BusTransfer snapshot = event;
    snapshot.data = nullptr;
    return snapshot;
}

} // namespace

// One dispatch body per payload type, behind the inline emit(): the
// synchronous pass runs first (response fields get their final values),
// then the payload is snapshotted for the batch ring.
#define SENTRY_TRACE_DISPATCH(Kind, Method, Field)                          \
    void TraceEngine::dispatch(Kind &event)                                 \
    {                                                                       \
        const TraceMask bit = maskOf(TraceKind::Kind);                      \
        if ((syncMask_ & bit) != 0) {                                       \
            for (const Entry &e : entries_) {                               \
                if ((e.mask & bit) != 0)                                    \
                    e.sub->Method(event);                                   \
            }                                                               \
        }                                                                   \
        if ((batchMask_ & bit) != 0) {                                      \
            appendRecord(TraceKind::Kind).Field = snapshotOf(event);        \
            commitRecord();                                                 \
        }                                                                   \
    }

SENTRY_TRACE_DISPATCH(MemAccess, onMemAccess, mem)
SENTRY_TRACE_DISPATCH(BusTransfer, onBusTransfer, bus)
SENTRY_TRACE_DISPATCH(CacheEvent, onCacheEvent, cache)
SENTRY_TRACE_DISPATCH(PowerEvent, onPowerEvent, power)
SENTRY_TRACE_DISPATCH(DmaBurst, onDmaBurst, dma)
SENTRY_TRACE_DISPATCH(CryptoOp, onCryptoOp, crypto)
SENTRY_TRACE_DISPATCH(KcryptdOp, onKcryptdOp, kcryptd)

#undef SENTRY_TRACE_DISPATCH

std::string
TraceCounters::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "dramR:%llu dramW:%llu iramR:%llu iramW:%llu busR:%llu busW:%llu "
        "busDup:%llu busRB:%llu busWB:%llu wb:%llu power:%llu "
        "joules:%.9g dma:%llu dmaB:%llu crypto:%llu cryptoB:%llu "
        "kcryptd:%llu stall:%.9g",
        static_cast<unsigned long long>(dramReads),
        static_cast<unsigned long long>(dramWrites),
        static_cast<unsigned long long>(iramReads),
        static_cast<unsigned long long>(iramWrites),
        static_cast<unsigned long long>(busReads),
        static_cast<unsigned long long>(busWrites),
        static_cast<unsigned long long>(busDuplicates),
        static_cast<unsigned long long>(busReadBytes),
        static_cast<unsigned long long>(busWriteBytes),
        static_cast<unsigned long long>(cacheWritebacks),
        static_cast<unsigned long long>(powerEvents), joules,
        static_cast<unsigned long long>(dmaBursts),
        static_cast<unsigned long long>(dmaBytes),
        static_cast<unsigned long long>(cryptoOps),
        static_cast<unsigned long long>(cryptoBytes),
        static_cast<unsigned long long>(kcryptdBlocks),
        kcryptdStallSeconds);
    return buf;
}

void
CounterSink::attach(TraceEngine &engine)
{
    detach();
    engine_ = &engine;
    engine_->attachCounters(&counters_);
}

void
CounterSink::detach()
{
    if (engine_ != nullptr) {
        engine_->detachCounters(&counters_);
        engine_ = nullptr;
    }
}

ChromeTraceSink::~ChromeTraceSink()
{
    if (!autoDumpPath_.empty()) {
        syncFromEngine();
        removeCrashHook(&ChromeTraceSink::crashHook, this);
        writeJson(autoDumpPath_);
        autoDumpPath_.clear();
    }
    detach();
}

void
ChromeTraceSink::attach(TraceEngine &engine, TraceMask mask)
{
    detach();
    engine_ = &engine;
    engine_->subscribeBatched(this, mask);
}

void
ChromeTraceSink::detach()
{
    if (engine_ != nullptr) {
        engine_->unsubscribeBatched(this);
        engine_ = nullptr;
    }
}

void
ChromeTraceSink::setAutoDump(const std::string &path)
{
    if (!autoDumpPath_.empty())
        removeCrashHook(&ChromeTraceSink::crashHook, this);
    autoDumpPath_ = path;
    if (!autoDumpPath_.empty())
        addCrashHook(&ChromeTraceSink::crashHook, this);
}

void
ChromeTraceSink::crashHook(void *self)
{
    auto *sink = static_cast<ChromeTraceSink *>(self);
    // Crash path: skip the engine flush (its state may be what paniced)
    // and dump whatever has already been delivered.
    if (!sink->autoDumpPath_.empty())
        sink->writeJson(sink->autoDumpPath_);
}

void
ChromeTraceSink::syncFromEngine() const
{
    if (engine_ != nullptr)
        engine_->flushPending();
}

std::size_t
ChromeTraceSink::eventCount() const
{
    syncFromEngine();
    return events_.size();
}

void
ChromeTraceSink::onRecords(const TraceRecord *records, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRecord &r = records[i];
        if (events_.size() >= maxEvents_) {
            truncated_ = true;
            return;
        }
        Event e{r.kind, r.tsUs, 0, 0, 0.0, false};
        switch (r.kind) {
          case TraceKind::MemAccess:
            e.arg0 = r.mem.offset |
                     (r.mem.device == MemAccess::Device::Iram
                          ? std::uint64_t{1} << 63
                          : 0);
            e.arg1 = r.mem.len;
            e.flag = r.mem.isWrite;
            break;
          case TraceKind::BusTransfer:
            e.arg0 = r.bus.addr;
            e.arg1 = (std::uint64_t{r.bus.duplicate} << 32) | r.bus.size;
            e.flag = r.bus.isWrite;
            break;
          case TraceKind::CacheEvent:
            e.arg0 = r.cache.addr;
            e.arg1 = r.cache.way;
            e.flag = r.cache.wayLocked;
            break;
          case TraceKind::PowerEvent:
            e.argF = r.power.joules;
            break;
          case TraceKind::DmaBurst:
            e.arg0 = r.dma.addr;
            e.arg1 = r.dma.len;
            e.flag = r.dma.isWrite;
            break;
          case TraceKind::CryptoOp:
            e.arg0 = r.crypto.bytes;
            e.flag = r.crypto.encrypt;
            break;
          case TraceKind::KcryptdOp:
            e.argF = r.kcryptd.stallSeconds;
            break;
          default:
            break;
        }
        events_.push_back(e);
    }
}

bool
ChromeTraceSink::writeJson(const std::string &path) const
{
    syncFromEngine();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (const Event &e : events_) {
        std::fprintf(
            f,
            "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
            "\"tid\":0,\"ts\":%.3f,\"args\":{\"a\":%llu,\"b\":%llu,"
            "\"f\":%.9g,\"w\":%s}}",
            first ? "" : ",\n", traceKindName(e.kind), e.tsUs,
            static_cast<unsigned long long>(e.arg0),
            static_cast<unsigned long long>(e.arg1), e.argF,
            e.flag ? "true" : "false");
        first = false;
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    const bool ok = std::fclose(f) == 0;
    return ok;
}

} // namespace sentry::probe
