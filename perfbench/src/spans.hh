/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark measures each simulator layer from outside: it opens a
 * span around every call it makes into a layer's public functions and
 * closes it when the call returns. Span names are "<layer>.<call>", so
 * per-layer self time falls out of the nesting: a span's self time is
 * its duration minus the time its direct children cover.
 *
 * One SpanLog belongs to one thread (no locking). Every closed span is
 * folded into per-name statistics; the first `keep` spans are also kept
 * as records for the chrome://tracing file written at exit.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Microseconds between two steady-clock points. */
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** One closed span, as written to the chrome://tracing file. */
struct SpanRecord
{
    std::string_view name;
    double startUs = 0.0; //!< since the process-wide trace epoch
    double endUs = 0.0;
    int parent = -1;        //!< index into the same log; -1 = root
    std::uint64_t unit = 0; //!< the device or trial the span belongs to
};

/** Aggregate of every span that carried one name. */
struct SpanStats
{
    std::uint64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
    std::vector<double> samplesUs; //!< bounded, see SpanLog
};

class SpanLog
{
  public:
    /** @param tid chrome-trace thread id; @param keep records kept */
    SpanLog(unsigned tid, std::size_t keep);

    /** Tag the spans opened from now on with @p unit. */
    void setUnit(std::uint64_t unit) { unit_ = unit; }

    void open(std::string_view name);
    void close();

    /** Fold a span measured elsewhere (no nesting) into the stats. */
    void add(std::string_view name, double us);

    unsigned tid() const { return tid_; }
    const std::vector<SpanRecord> &records() const { return records_; }
    const std::map<std::string_view, SpanStats> &stats() const
    {
        return stats_;
    }

    /** Root spans' total duration, and the part their children cover. */
    double rootUs() const { return rootUs_; }
    double rootChildUs() const { return rootChildUs_; }

    /** Merge @p other's statistics into this log (records are not). */
    void mergeStats(const SpanLog &other);

  private:
    struct Open
    {
        std::string_view name;
        Clock::time_point start;
        double childUs = 0.0;
        int record = -1;
    };

    void fold(std::string_view name, double us, double selfUs);

    unsigned tid_;
    std::size_t keep_;
    std::uint64_t unit_ = 0;
    std::vector<Open> stack_;
    std::vector<SpanRecord> records_;
    std::map<std::string_view, SpanStats> stats_;
    double rootUs_ = 0.0;
    double rootChildUs_ = 0.0;
};

/** RAII span; a null log makes it free (the untraced path). */
class Span
{
  public:
    Span(SpanLog *log, std::string_view name) : log_(log)
    {
        if (log_ != nullptr)
            log_->open(name);
    }
    ~Span()
    {
        if (log_ != nullptr)
            log_->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
};

/** Nearest-rank percentile (p in [0,100]) of @p samples; 0 if empty. */
double percentileOf(std::vector<double> samples, double p);

/**
 * Write every log's records as chrome://tracing JSON.
 * @return false when the file cannot be written
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanLog *> &logs);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
