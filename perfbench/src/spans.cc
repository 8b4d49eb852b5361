#include "spans.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

namespace
{

/** Samples kept per span name per log: bounds memory on long runs
 * while leaving thousands of samples behind every percentile. */
constexpr std::size_t SAMPLE_CAP = 200000;

const Clock::time_point EPOCH = Clock::now();

} // namespace

SpanLog::SpanLog(unsigned tid, std::size_t keep) : tid_(tid), keep_(keep)
{}

void
SpanLog::open(std::string_view name)
{
    Open span;
    span.name = name;
    if (records_.size() < keep_) {
        span.record = static_cast<int>(records_.size());
        SpanRecord record;
        record.name = name;
        record.parent = stack_.empty() ? -1 : stack_.back().record;
        record.unit = unit_;
        records_.push_back(record);
    }
    span.start = Clock::now();
    stack_.push_back(span);
}

void
SpanLog::close()
{
    const Clock::time_point end = Clock::now();
    const Open span = stack_.back();
    stack_.pop_back();
    const double us = usBetween(span.start, end);
    if (span.record >= 0) {
        SpanRecord &record = records_[static_cast<std::size_t>(span.record)];
        record.startUs = usBetween(EPOCH, span.start);
        record.endUs = usBetween(EPOCH, end);
    }
    if (stack_.empty()) {
        rootUs_ += us;
        rootChildUs_ += span.childUs;
    } else {
        stack_.back().childUs += us;
    }
    fold(span.name, us, us - span.childUs);
}

void
SpanLog::add(std::string_view name, double us)
{
    fold(name, us, us);
}

void
SpanLog::fold(std::string_view name, double us, double selfUs)
{
    SpanStats &stats = stats_[name];
    ++stats.count;
    stats.totalUs += us;
    stats.selfUs += selfUs;
    if (stats.samplesUs.size() < SAMPLE_CAP)
        stats.samplesUs.push_back(us);
}

void
SpanLog::mergeStats(const SpanLog &other)
{
    for (const auto &[name, theirs] : other.stats_) {
        SpanStats &mine = stats_[name];
        mine.count += theirs.count;
        mine.totalUs += theirs.totalUs;
        mine.selfUs += theirs.selfUs;
        mine.samplesUs.insert(mine.samplesUs.end(), theirs.samplesUs.begin(),
                              theirs.samplesUs.end());
    }
    rootUs_ += other.rootUs_;
    rootChildUs_ += other.rootChildUs_;
}

double
percentileOf(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p / 100.0 * samples.size());
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(index, samples.size() - 1)];
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (const SpanLog *log : logs) {
        for (const SpanRecord &r : log->records()) {
            if (r.endUs <= 0.0)
                continue; // still open when the log was written
            std::fprintf(f,
                         "%s\n{\"name\":\"%.*s\",\"cat\":\"%.*s\","
                         "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                         "\"tid\":%u,\"args\":{\"unit\":%llu,"
                         "\"parent\":%d}}",
                         first ? "" : ",", static_cast<int>(r.name.size()),
                         r.name.data(),
                         static_cast<int>(r.name.find('.')), r.name.data(),
                         r.startUs, r.endUs - r.startUs, log->tid(),
                         static_cast<unsigned long long>(r.unit), r.parent);
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
