/**
 * The repo benchmark: trains one seeded workload on the real
 * FrugalEngine for a fixed wall-time budget, gates every run on
 * bit-equality with the single-threaded oracle, and prints every metric
 * by name with its unit. The last line of stdout is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 *   perfbench --workload zipf-hot --seed 1 --seconds 10 --trace 0
 *
 * --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
 * alternates untraced and traced runs, replays the workload through the
 * cache, table and pq layers, reports the per-layer metrics and writes a
 * Chrome trace (--trace-out). Load is a closed loop: the trace is built
 * before each run and every trainer starts step s+1 only after the step
 * barrier. See perfbench/README.md.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "runtime/oracle.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace frugal;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t steps = 0;  ///< 0 = the workload's default
    std::string trace_out;
    std::string git = "unknown";
    /** Corrupt one row of every run's table before the gate (the
     *  gate's negative control: every run must then count as failed). */
    bool negative_control = false;
};

/** Limit on one run, set-up through Run(); a normal run takes ~1 s. */
constexpr double kDeadlineSeconds = 60.0;

[[noreturn]] void
Usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "zipf-hot|rec-dlrm|kg-wide --seed N --seconds S "
                 "--trace 0|1 [--steps N] [--trace-out FILE] [--git DESC] "
                 "[--negative-control]\n",
                 why);
    std::exit(2);
}

Options
ParseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--negative-control") {
            opt.negative_control = true;
            continue;
        }
        if (i + 1 >= argc)
            Usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--steps")
            opt.steps = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--trace-out")
            opt.trace_out = value;
        else if (arg == "--git")
            opt.git = value;
        else
            Usage(("unknown argument " + arg).c_str());
    }
    const auto &names = WorkloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        Usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!(opt.seconds > 0.0))
        Usage("--seconds must be positive");
    return opt;
}

std::string
JsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** The host and build a result came from (ROADMAP item 1(a)). */
std::string
HostHeader(const Options &opt)
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\": %ld, \"cpu\": %s, \"compiler\": %s, "
                  "\"build_type\": %s, \"git\": %s, \"workload\": %s, "
                  "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
                  sysconf(_SC_NPROCESSORS_ONLN), JsonString(cpu).c_str(),
                  JsonString(std::string("gcc ") + __VERSION__).c_str(),
                  JsonString(PERFBENCH_BUILD_TYPE).c_str(),
                  JsonString(opt.git).c_str(),
                  JsonString(opt.workload).c_str(),
                  static_cast<unsigned long long>(opt.seed), opt.seconds,
                  opt.trace ? 1 : 0);
    return buf;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty input. */
double
Quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
Ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Run counts, shared with the deadline monitor. */
struct Tally
{
    std::atomic<int> attempted{0};
    std::atomic<int> failed{0};
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

using Metrics = std::vector<Metric>;

void
PrintResult(const Tally &tally, bool correct, const Metrics &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted.load());
    json += ", \"failed\": " + std::to_string(tally.failed.load());
    json += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/**
 * Fails the whole benchmark when one run overruns its deadline: a hung
 * Run() cannot be cancelled, so on expiry the monitor prints a failed
 * result and ends the process.
 */
class DeadlineMonitor
{
  public:
    explicit DeadlineMonitor(const Tally &tally)
        : tally_(tally), thread_([this] { Loop(); })
    {
    }

    ~DeadlineMonitor()
    {
        {
            std::lock_guard<std::mutex> guard(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    DeadlineMonitor(const DeadlineMonitor &) = delete;
    DeadlineMonitor &operator=(const DeadlineMonitor &) = delete;

    void
    Arm(double seconds)
    {
        std::lock_guard<std::mutex> guard(mu_);
        armed_ = true;
        due_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
        cv_.notify_all();
    }

    void
    Disarm()
    {
        std::lock_guard<std::mutex> guard(mu_);
        armed_ = false;
    }

  private:
    void
    Loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
            if (!armed_) {
                cv_.wait(lock);
                continue;
            }
            cv_.wait_until(lock, due_);
            if (armed_ && !stop_ && Clock::now() >= due_) {
                std::fprintf(stderr, "perfbench: a run missed its "
                                     "deadline; aborting\n");
                Tally hung;
                hung.attempted = tally_.attempted.load();
                hung.failed = tally_.failed.load() + 1;
                PrintResult(hung, false, {});
                std::_Exit(1);
            }
        }
    }

    const Tally &tally_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool armed_ = false;
    bool stop_ = false;
    Clock::time_point due_{};
    std::thread thread_;
};

/** One engine run: timings, the engine's report and the gate verdict. */
struct Rep
{
    bool ok = false;
    bool traced = false;
    double build_s = 0.0;  ///< workload (dataset + trace) generation
    double setup_s = 0.0;  ///< build_s plus engine construction
    double run_s = 0.0;    ///< Run() wall time
    double samples_per_s = 0.0;
    double step_p50_ms = 0.0;
    double step_p90_ms = 0.0;
    double step_p99_ms = 0.0;
    double grad_s = 0.0;  ///< mean per-trainer GradFn time (traced)
    double hook_s = 0.0;  ///< StepHook time (traced)
    RunReport report;
};

void
FlipOneBit(HostEmbeddingTable &table, Key key)
{
    float *row = table.MutableRow(key);
    std::uint32_t bits = 0;
    std::memcpy(&bits, row, sizeof(bits));
    bits ^= 1u;
    std::memcpy(row, &bits, sizeof(bits));
}

/** The runs `keep` selects. */
template <typename Keep>
std::vector<const Rep *>
Select(const std::vector<Rep> &reps, Keep keep)
{
    std::vector<const Rep *> out;
    for (const Rep &r : reps)
        if (keep(r))
            out.push_back(&r);
    return out;
}

/** Median over `runs` of a per-run quantity. */
template <typename F>
double
MedianOver(const std::vector<const Rep *> &runs, F f)
{
    std::vector<double> v;
    for (const Rep *r : runs)
        v.push_back(static_cast<double>(f(*r)));
    return Quantile(v, 0.5);
}

class Bench
{
  public:
    explicit Bench(const Options &opt) : opt_(opt), monitor_(tally_) {}

    int
    Main()
    {
        const std::string header = HostHeader(opt_);
        std::printf("perfbench header: %s\n", header.c_str());

        // The oracle runs once, on its own build of the workload; every
        // run below regenerates the workload from the same seed, so a
        // generator that is not deterministic fails the gate too. Its
        // time is kept out of every metric except speedup_vs_oracle.
        reference_ = BuildWorkload(opt_.workload, opt_.seed, opt_.steps);
        ComputeOracle();

        // Warm-up runs pass the gate like every other run but are not
        // timed: the first runs in a process also pay for the allocator
        // growing its pools, which a long training job pays only once.
        constexpr int kWarmupRuns = 2;
        auto start = Clock::now();
        std::vector<Rep> reps;
        for (int i = 0; tally_.failed == 0; ++i) {
            const bool warmup = i < kWarmupRuns;
            if (i == kWarmupRuns)
                start = Clock::now();
            if (!warmup && Seconds(start, Clock::now()) >= opt_.seconds &&
                reps.size() >= (opt_.trace ? 4u : 3u))
                break;
            const bool traced = opt_.trace && !warmup && i % 2 == 1;
            Rep rep = RunRep(traced, i == 0);
            if (i == 0)
                first_run_rss_mb_ = PeakRssMb();
            std::fprintf(stderr,
                         "run %d%s: %s setup %.3f s, Run() %.3f s, "
                         "%.0f samples/s, step p50 %.3f ms p90 %.3f ms\n",
                         i, warmup ? " (warm-up)" : traced ? " (traced)" : "",
                         rep.ok ? "ok" : "FAILED", rep.setup_s, rep.run_s,
                         rep.samples_per_s, rep.step_p50_ms, rep.step_p90_ms);
            if (rep.ok && !warmup)
                reps.push_back(std::move(rep));
        }
        if (tally_.failed > 0) {
            std::fprintf(stderr,
                         "perfbench: %d of %d runs failed the oracle gate "
                         "or missed the deadline; no metrics reported\n",
                         tally_.failed.load(), tally_.attempted.load());
            PrintResult(tally_, false, {});
            return 1;
        }

        Metrics metrics;
        if (opt_.trace)
            LayerMetrics(reps, header, &metrics);
        else
            EndToEndMetrics(reps, &metrics);
        for (const Metric &m : metrics)
            std::printf("metric %-28s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit);
        std::printf("failed_share %.6g (%d of %d runs)\n",
                    Ratio(tally_.failed, tally_.attempted), tally_.failed.load(),
                    tally_.attempted.load());
        PrintResult(tally_, true, metrics);
        return 0;
    }

  private:
    void
    ComputeOracle()
    {
        const Workload &w = *reference_;
        oracle_table_ =
            std::make_unique<HostEmbeddingTable>(TableConfigOf(w.config));
        auto optimizer =
            MakeOptimizer(w.config.optimizer, w.config.learning_rate,
                          w.config.key_space, w.config.dim);
        ModelInstance model = w.NewModel();
        const auto begin = Clock::now();
        RunOracle(*oracle_table_, *optimizer, w.trace(), model.grad,
                  model.hook);
        oracle_samples_per_s_ = static_cast<double>(w.samples) /
                                Seconds(begin, Clock::now());
    }

    Rep
    RunRep(bool traced, bool check_gate)
    {
        ++tally_.attempted;
        Tracer *tracer = traced ? &tracer_ : nullptr;
        if (tracer != nullptr)
            tracer_.Clear();  // the written trace keeps the last run
        Rep rep;
        rep.traced = traced;
        monitor_.Arm(kDeadlineSeconds);
        const auto t0 = Clock::now();
        std::unique_ptr<Workload> w;
        {
            ScopedSpan span(tracer, tracer_.MainLane(), "workload.build");
            w = BuildWorkload(opt_.workload, opt_.seed, opt_.steps);
        }
        const auto t1 = Clock::now();
        std::unique_ptr<Engine> engine;
        ModelInstance model;
        {
            ScopedSpan span(tracer, tracer_.MainLane(), "engine.construct");
            engine = MakeEngine("frugal", w->config);
            model = w->NewModel();
        }
        const auto t2 = Clock::now();

        GradFn grad = model.grad;
        if (tracer != nullptr) {
            grad = [tracer, inner = model.grad](
                       GpuId gpu, Step step, const std::vector<Key> &keys,
                       const std::vector<float> &values,
                       std::vector<float> *grads) {
                ScopedSpan span(tracer, tracer->GpuLane(static_cast<int>(gpu)),
                                "model.grad", static_cast<std::int64_t>(step),
                                static_cast<int>(gpu));
                inner(gpu, step, keys, values, grads);
            };
        }
        // The hook runs in the step barrier's completion, which the
        // barrier serialises and orders before Run() returns, so
        // `stamps` needs no lock.
        std::vector<Clock::time_point> stamps;
        stamps.reserve(w->trace().NumSteps());
        const StepHook hook = [&](Step step) {
            ScopedSpan span(tracer, tracer_.BarrierLane(), "model.hook",
                            static_cast<std::int64_t>(step));
            stamps.push_back(Clock::now());
            if (model.hook)
                model.hook(step);
        };
        {
            ScopedSpan span(tracer, tracer_.MainLane(), "engine.run");
            rep.report = engine->Run(w->trace(), grad, hook);
        }
        const auto t3 = Clock::now();
        monitor_.Disarm();

        rep.build_s = Seconds(t0, t1);
        rep.setup_s = Seconds(t0, t2);
        rep.run_s = Seconds(t2, t3);
        rep.samples_per_s = static_cast<double>(w->samples) / rep.run_s;
        std::vector<double> step_ms;
        for (std::size_t i = 1; i < stamps.size(); ++i)
            step_ms.push_back(Seconds(stamps[i - 1], stamps[i]) * 1e3);
        rep.step_p50_ms = Quantile(step_ms, 0.50);
        rep.step_p90_ms = Quantile(step_ms, 0.90);
        rep.step_p99_ms = Quantile(step_ms, 0.99);
        if (tracer != nullptr) {
            for (std::uint32_t g = 0; g < w->config.n_gpus; ++g)
                rep.grad_s += tracer->TotalSeconds(
                    tracer->GpuLane(static_cast<int>(g)), "model.grad");
            rep.grad_s /= w->config.n_gpus;
            rep.hook_s =
                tracer->TotalSeconds(tracer->BarrierLane(), "model.hook");
        }

        // The correctness gate: bit-equality with the oracle, within the
        // deadline. It cannot be skipped.
        const Key probe = w->trace().KeysFor(0, 0).front();
        if (opt_.negative_control)
            FlipOneBit(engine->table(), probe);
        rep.ok = rep.run_s + rep.setup_s <= kDeadlineSeconds &&
                 TablesBitEqual(engine->table(), *oracle_table_);
        if (rep.ok && check_gate) {
            // The gate must see a one-bit difference in one row.
            FlipOneBit(engine->table(), probe);
            if (TablesBitEqual(engine->table(), *oracle_table_)) {
                std::fprintf(stderr, "perfbench: the oracle gate missed a "
                                     "corrupted row\n");
                rep.ok = false;
            }
        }
        if (!rep.ok)
            ++tally_.failed;
        return rep;
    }

    void
    EndToEndMetrics(const std::vector<Rep> &reps, Metrics *out) const
    {
        const auto runs = Select(reps, [](const Rep &) { return true; });
        out->push_back({"samples_per_s",
                        MedianOver(runs, [](const Rep &r) {
                            return r.samples_per_s;
                        }),
                        "1/s"});
        out->push_back(
            {"step_ms_p50",
             MedianOver(runs, [](const Rep &r) { return r.step_p50_ms; }),
             "ms"});
        out->push_back(
            {"step_ms_p90",
             MedianOver(runs, [](const Rep &r) { return r.step_p90_ms; }),
             "ms"});
        out->push_back(
            {"setup_s",
             MedianOver(runs, [](const Rep &r) { return r.setup_s; }), "s"});
        out->push_back({"peak_rss_mb", first_run_rss_mb_, "MiB"});
    }

    void
    LayerMetrics(const std::vector<Rep> &reps, const std::string &header,
                 Metrics *out)
    {
        const auto traced = Select(reps, [](const Rep &r) { return r.traced; });
        const auto plain = Select(reps, [](const Rep &r) { return !r.traced; });
        const auto all = Select(reps, [](const Rep &) { return true; });
        auto add = [out](const char *name, double value, const char *unit) {
            out->push_back({name, value, unit});
        };
        // Engine counters and span totals: median over the traced runs.
        auto add_traced = [&](const char *name, const char *unit, auto f) {
            add(name, MedianOver(traced, f), unit);
        };
        const double n_gpus = kTrainers;
        const double plain_sps =
            MedianOver(plain, [](const Rep &r) { return r.samples_per_s; });
        const double traced_sps =
            MedianOver(traced, [](const Rep &r) { return r.samples_per_s; });

        // Layer replays over the reference build of the workload.
        const Trace &trace = reference_->trace();
        const EngineConfig &config = reference_->config;
        const CacheReplay cache = ReplayCache(trace, config, &tracer_);
        const TableReplay table = ReplayTable(trace, config, cache, &tracer_);
        const PqReplay pq = ReplayPq(trace, config, &tracer_);

        add_traced("runtime.self_s", "s", [](const Rep &r) {
            return r.run_s - r.grad_s - r.hook_s;
        });
        add_traced("runtime.gate_wait_s", "s", [](const Rep &r) {
            return r.report.stall_seconds_total;
        });
        add_traced("runtime.gate_wait_share", "ratio", [](const Rep &r) {
            return Ratio(r.report.stall_seconds_total, r.run_s);
        });
        add_traced("runtime.blocked_step_share", "ratio", [&](const Rep &r) {
            return Ratio(r.report.gate_waits, r.report.steps * n_gpus);
        });
        add_traced("runtime.flush_lag_p50_us", "us", [](const Rep &r) {
            return r.report.flush_lag.Percentile(50) * 1e6;
        });
        add_traced("runtime.flush_lag_p99_us", "us", [](const Rep &r) {
            return r.report.flush_lag.Percentile(99) * 1e6;
        });
        add_traced("runtime.updates_per_claim", "count", [](const Rep &r) {
            return Ratio(r.report.updates_applied,
                         r.report.flush_entry_claims);
        });
        add_traced("runtime.throttle_events", "count", [](const Rep &r) {
            return r.report.overload.throttle_events;
        });
        add_traced("runtime.warm_hit_ratio", "ratio", [](const Rep &r) {
            return Ratio(r.report.prefetch.warm_hits,
                         r.report.prefetch.rows_warmed);
        });
        add_traced("runtime.late_warms", "count", [](const Rep &r) {
            return r.report.prefetch.late_warms;
        });
        add("runtime.step_ms_p99",
            MedianOver(plain, [](const Rep &r) { return r.step_p99_ms; }),
            "ms");
        add("runtime.speedup_vs_oracle",
            Ratio(plain_sps, oracle_samples_per_s_), "ratio");
        add_traced("models.grad_s", "s",
                   [](const Rep &r) { return r.grad_s; });
        add_traced("models.grad_share", "ratio",
                   [](const Rep &r) { return Ratio(r.grad_s, r.run_s); });
        add_traced("models.hook_s", "s",
                   [](const Rep &r) { return r.hook_s; });
        add_traced("cache.hit_ratio", "ratio",
                   [](const Rep &r) { return r.report.cache.HitRatio(); });
        add_traced("cache.hot_share", "ratio", [](const Rep &r) {
            return Ratio(r.report.cache.hot_hits, r.report.cache.hits);
        });
        add_traced("cache.admission_declines", "count", [](const Rep &r) {
            return r.report.cache.admission_declines;
        });
        add("cache.probe_ns", cache.probe_ns, "ns");
        add("cache.replay_hit_ratio", cache.hit_ratio, "ratio");
        add_traced("table.host_reads", "count",
                   [](const Rep &r) { return r.report.host_reads; });
        const double row_mib =
            static_cast<double>(config.dim * sizeof(float)) / (1 << 20);
        add_traced("table.host_read_mb", "MiB", [row_mib](const Rep &r) {
            return static_cast<double>(r.report.host_reads) * row_mib;
        });
        add("table.read_ns_per_row", table.read_ns_per_row, "ns");
        add("table.apply_ns_per_row", table.apply_ns_per_row, "ns");
        add("pq.enqueue_ns", pq.enqueue_ns, "ns");
        add("pq.dequeue_claim_ns", pq.dequeue_claim_ns, "ns");
        add("pq.entries_per_claim", pq.entries_per_claim, "count");
        add("data.trace_build_s",
            MedianOver(all, [](const Rep &r) { return r.build_s; }), "s");
        add("trace.overhead", Ratio(traced_sps, plain_sps), "ratio");

        if (!opt_.trace_out.empty() &&
            !tracer_.WriteChromeJson(opt_.trace_out, header))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt_.trace_out.c_str());
    }

    const Options opt_;
    Tally tally_;
    DeadlineMonitor monitor_;
    Tracer tracer_{static_cast<int>(kTrainers)};
    std::unique_ptr<Workload> reference_;
    std::unique_ptr<HostEmbeddingTable> oracle_table_;
    double oracle_samples_per_s_ = 0.0;
    /** Peak RSS through the first run: the reference workload, the
     *  oracle's table and one training run. Later runs inherit the
     *  allocator's retained pools, which no single training job has. */
    double first_run_rss_mb_ = 0.0;
};

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opt = perfbench::ParseArgs(argc, argv);
    perfbench::Bench bench(opt);
    return bench.Main();
}
