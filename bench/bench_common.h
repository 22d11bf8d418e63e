/**
 * @file
 * What the JSON-emitting benches share: the metric record, the JSON
 * writer the check.sh baseline diff parses, and the `[--smoke] [--out
 * PATH]` command line.
 */
#ifndef FRUGAL_BENCH_BENCH_COMMON_H_
#define FRUGAL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace frugal {

/** One measurement: a `{"metric", "value", "unit"}` JSON record. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Writes `metrics` to `path` as a JSON array, one record per line. */
inline void
WriteJson(const std::vector<Metric> &metrics, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(out,
                     "  {\"metric\": \"%s\", \"value\": %.6g, "
                     "\"unit\": \"%s\"}%s\n",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str(),
                     i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics.size());
}

/** A bench's parsed command line. */
struct BenchArgs
{
    /** Shrunken sizes for CI. */
    bool smoke = false;
    /** Where the JSON goes. */
    std::string out_path;
};

/**
 * Parses `[--smoke] [--out PATH]`, with `default_out` as the JSON path.
 * @return nullopt after printing usage on any other argument.
 */
inline std::optional<BenchArgs>
ParseBenchArgs(int argc, char **argv, const char *default_out)
{
    BenchArgs args;
    args.out_path = default_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            args.out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n",
                         argv[0]);
            return std::nullopt;
        }
    }
    return args;
}

}  // namespace frugal

#endif  // FRUGAL_BENCH_BENCH_COMMON_H_
