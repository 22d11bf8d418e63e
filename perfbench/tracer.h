/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded only around the benchmark's own calls into the
 * engine (workload build, engine construction, Run(), every GradFn and
 * StepHook call, every layer-replay phase). Each lane is one timeline
 * row of the Chrome trace: lane 0 is the benchmark's main thread,
 * lanes 1..n are the trainers (by GPU), and the last lane is the step
 * barrier that runs the StepHook. Spans stay in memory and are written
 * as Chrome trace-event JSON once, when the benchmark ends.
 */
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
Seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** One completed span; `id` is the step number, or -1 outside steps. */
struct Span
{
    const char *name = "";
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t id = -1;
    int gpu = -1;
};

class Tracer
{
  public:
    /** `n_gpus` trainer lanes plus the main and barrier lanes. */
    explicit Tracer(int n_gpus)
        : n_gpus_(n_gpus), lanes_(static_cast<std::size_t>(n_gpus) + 2),
          origin_(Clock::now())
    {
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    int MainLane() const { return 0; }
    int GpuLane(int gpu) const { return 1 + gpu; }
    int BarrierLane() const { return n_gpus_ + 1; }

    std::int64_t
    Now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** Appends a span to `lane`; safe from any thread. */
    void
    Record(int lane, const Span &span)
    {
        Lane &l = lanes_[static_cast<std::size_t>(lane)];
        std::lock_guard<std::mutex> guard(l.mu);
        l.spans.push_back(span);
    }

    /** Summed duration (seconds) of the spans named `name` on `lane`. */
    double
    TotalSeconds(int lane, const char *name) const
    {
        const Lane &l = lanes_[static_cast<std::size_t>(lane)];
        std::lock_guard<std::mutex> guard(l.mu);
        std::int64_t total = 0;
        for (const Span &s : l.spans)
            if (std::strcmp(s.name, name) == 0)
                total += s.end_ns - s.begin_ns;
        return static_cast<double>(total) * 1e-9;
    }

    /** Drops every span; the written trace then holds only what was
     *  recorded after the last call. */
    void
    Clear()
    {
        for (Lane &l : lanes_) {
            std::lock_guard<std::mutex> guard(l.mu);
            l.spans.clear();
        }
    }

    /**
     * Writes the spans as Chrome trace-event JSON ("X" complete events,
     * microsecond timestamps) with `header_json` as the trace's
     * metadata object. @return false if the file cannot be written.
     */
    bool
    WriteChromeJson(const std::string &path,
                    const std::string &header_json) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n",
                     header_json.c_str());
        bool first = true;
        for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
            const int tid = static_cast<int>(lane);
            std::string name = tid == MainLane()      ? "benchmark"
                               : tid == BarrierLane() ? "step barrier"
                                                      : "trainer gpu " +
                                                            std::to_string(
                                                                tid - 1);
            std::fprintf(f,
                         "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                         "\"name\":\"thread_name\",\"args\":{\"name\":"
                         "\"%s\"}}",
                         first ? "" : ",\n", tid, name.c_str());
            first = false;
            std::lock_guard<std::mutex> guard(lanes_[lane].mu);
            for (const Span &s : lanes_[lane].spans) {
                std::fprintf(f,
                             ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                             "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                             "\"id\":%lld,\"args\":{\"step\":%lld,"
                             "\"gpu\":%d}}",
                             tid, s.name,
                             static_cast<double>(s.begin_ns) * 1e-3,
                             static_cast<double>(s.end_ns - s.begin_ns) *
                                 1e-3,
                             static_cast<long long>(s.id),
                             static_cast<long long>(s.id), s.gpu);
            }
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Lane
    {
        mutable std::mutex mu;
        std::vector<Span> spans;
    };

    int n_gpus_;
    std::vector<Lane> lanes_;
    Clock::time_point origin_;
};

/** Records one span on scope exit; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, int lane, const char *name,
               std::int64_t id = -1, int gpu = -1)
        : tracer_(tracer), lane_(lane)
    {
        if (tracer_ != nullptr)
            span_ = Span{name, tracer_->Now(), 0, id, gpu};
    }

    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            span_.end_ns = tracer_->Now();
            tracer_->Record(lane_, span_);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int lane_;
    Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
