/**
 * @file
 * Layer replays: a workload's own key and write stream pushed through
 * one layer's public functions, single-threaded, so the per-layer
 * numbers describe the traffic the end-to-end run sees.
 *
 *  - cache: each trainer's owned keys through GpuCache::TryGet, with a
 *    Put on every miss (hinted, as the engine's trainers do), at the
 *    engine's per-GPU capacity and cache options;
 *  - table: the replay's host reads through HostEmbeddingTable::ReadRows
 *    (one call per trainer step, as the trainers gather) and every
 *    step's write set through ApplyGradients (one call per key, all of
 *    that step's gradients for it);
 *  - pq: every step's reads (lookahead steps ahead) and writes through
 *    GEntryRegistry + RegisterRead/RegisterUpdate into a TwoLevelPQ, then
 *    DequeueClaim + FlushClaimed until it is empty.
 */
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "data/trace.h"
#include "runtime/engine.h"
#include "tracer.h"

namespace perfbench {

struct CacheReplay
{
    double probe_ns = 0.0;   ///< per lookup (TryGet plus Put on a miss)
    double hit_ratio = 0.0;
    /** Host reads of each (step, trainer), in the trainers' order. */
    std::vector<std::vector<frugal::Key>> host_reads;
};

struct TableReplay
{
    double read_ns_per_row = 0.0;
    double apply_ns_per_row = 0.0;  ///< per gradient applied
};

struct PqReplay
{
    double enqueue_ns = 0.0;         ///< per RegisterRead/RegisterUpdate
    double dequeue_claim_ns = 0.0;   ///< per entry claimed and flushed
    double entries_per_claim = 0.0;  ///< per non-empty DequeueClaim
};

CacheReplay ReplayCache(const frugal::Trace &trace,
                        const frugal::EngineConfig &config,
                        Tracer *tracer);

TableReplay ReplayTable(const frugal::Trace &trace,
                        const frugal::EngineConfig &config,
                        const CacheReplay &cache, Tracer *tracer);

PqReplay ReplayPq(const frugal::Trace &trace,
                  const frugal::EngineConfig &config, Tracer *tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
