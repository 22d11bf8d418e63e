/**
 * @file
 * The benchmark's three workloads, each generated from a seed.
 *
 * Every workload trains on 2 trainers with 2 flush threads; all other
 * EngineConfig fields keep their defaults. Why each one exists is in
 * perfbench/README.md.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/trace.h"
#include "models/grad_fn.h"
#include "runtime/engine.h"

namespace perfbench {

/** Trainers (simulated GPUs) of every workload; each also gets this
 *  many flush threads, so the pair fills a 4-core host. */
constexpr std::uint32_t kTrainers = 2;

/** One model instance: its callbacks plus the state they close over.
 *  Models with dense state (DLRM) need a fresh instance per run. */
struct ModelInstance
{
    std::shared_ptr<void> state;
    frugal::GradFn grad;
    frugal::StepHook hook;  ///< empty when the model has no step work
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const frugal::Trace &trace() const = 0;

    /** A fresh model bound to this workload's samples. */
    virtual ModelInstance NewModel() const = 0;

    /** The engine configuration the workload trains with. */
    frugal::EngineConfig config;

    /** Trace samples: DLRM samples, KG triples or synthetic keys. */
    std::uint64_t samples = 0;
};

/** The host table an engine with `config` starts from (the oracle and
 *  the layer replays build the same one). */
frugal::EmbeddingTableConfig TableConfigOf(const frugal::EngineConfig &config);

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &WorkloadNames();

/** Steps one run of `name` trains by default. */
std::size_t DefaultSteps(const std::string &name);

/** Generates workload `name` from `seed`; `steps` = 0 picks the
 *  default. Returns null for an unknown name. */
std::unique_ptr<Workload> BuildWorkload(const std::string &name,
                                        std::uint64_t seed,
                                        std::size_t steps);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
