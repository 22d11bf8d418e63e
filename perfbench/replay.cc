#include "replay.h"

#include <algorithm>
#include <memory>

#include "cache/gpu_cache.h"
#include "data/next_use.h"
#include "pq/g_entry_registry.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"
#include "table/embedding_table.h"
#include "table/optimizer.h"
#include "workloads.h"

namespace perfbench {

using namespace frugal;

namespace {

double
PerUnitNs(Clock::duration elapsed, std::uint64_t units)
{
    return units == 0
               ? 0.0
               : static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         elapsed)
                         .count()) /
                     static_cast<double>(units);
}

}  // namespace

CacheReplay
ReplayCache(const Trace &trace, const EngineConfig &config, Tracer *tracer)
{
    ScopedSpan span(tracer, 0, "replay.cache");
    const std::uint32_t n_gpus = trace.n_gpus();
    const std::size_t dim = config.dim;
    const NextUseIndex next_use = trace.BuildNextUseIndex();
    KeyOwnership ownership(n_gpus);
    std::vector<std::unique_ptr<GpuCache>> caches;
    for (std::uint32_t g = 0; g < n_gpus; ++g)
        caches.push_back(std::make_unique<GpuCache>(
            config.CacheRowsPerGpu(), dim, config.cache_options));

    // Split every (step, trainer) key list into owned keys (probed in
    // the owner's cache) and non-owned keys (always host reads) outside
    // the timed loop.
    CacheReplay out;
    std::vector<std::vector<Key>> owned;
    std::vector<std::vector<Step>> hints;
    for (std::size_t s = 0; s < trace.NumSteps(); ++s) {
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            const auto row = next_use.HintRow(s, g);
            owned.emplace_back();
            hints.emplace_back();
            out.host_reads.emplace_back();
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (ownership.OwnerOf(keys[i]) == g) {
                    owned.back().push_back(keys[i]);
                    hints.back().push_back(row[i]);
                } else {
                    out.host_reads.back().push_back(keys[i]);
                }
            }
        }
    }

    std::vector<float> row(dim, 0.5f);
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    const auto begin = Clock::now();
    for (std::size_t b = 0; b < owned.size(); ++b) {
        GpuCache &cache = *caches[b % n_gpus];
        for (std::size_t i = 0; i < owned[b].size(); ++i) {
            if (cache.TryGet(owned[b][i], row.data(), hints[b][i])) {
                ++hits;
            } else {
                cache.Put(owned[b][i], row.data(), hints[b][i]);
                out.host_reads[b].push_back(owned[b][i]);
            }
        }
        lookups += owned[b].size();
    }
    out.probe_ns = PerUnitNs(Clock::now() - begin, lookups);
    out.hit_ratio = lookups == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(lookups);
    return out;
}

TableReplay
ReplayTable(const Trace &trace, const EngineConfig &config,
            const CacheReplay &cache, Tracer *tracer)
{
    HostEmbeddingTable table(TableConfigOf(config));
    const std::size_t dim = config.dim;
    TableReplay out;
    {
        ScopedSpan span(tracer, 0, "replay.table.read");
        std::size_t widest = 0;
        for (const auto &keys : cache.host_reads)
            widest = std::max(widest, keys.size());
        std::vector<float> rows(widest * dim);
        std::uint64_t n_rows = 0;
        const auto begin = Clock::now();
        for (const auto &keys : cache.host_reads) {
            table.ReadRows(keys.data(), keys.size(), rows.data());
            n_rows += keys.size();
        }
        out.read_ns_per_row = PerUnitNs(Clock::now() - begin, n_rows);
    }
    {
        ScopedSpan span(tracer, 0, "replay.table.apply");
        // Each step's write set: every key it touched, with one gradient
        // per trainer that touched it (what one flushed W set carries).
        std::vector<std::vector<std::pair<Key, std::uint32_t>>> writes(
            trace.NumSteps());
        for (std::size_t s = 0; s < trace.NumSteps(); ++s) {
            std::vector<Key> keys;
            for (std::uint32_t g = 0; g < trace.n_gpus(); ++g) {
                const auto &k = trace.KeysFor(s, g);
                keys.insert(keys.end(), k.begin(), k.end());
            }
            std::sort(keys.begin(), keys.end());
            for (std::size_t i = 0; i < keys.size();) {
                std::size_t j = i;
                while (j < keys.size() && keys[j] == keys[i])
                    ++j;
                writes[s].emplace_back(keys[i],
                                       static_cast<std::uint32_t>(j - i));
                i = j;
            }
        }
        auto optimizer = MakeOptimizer(config.optimizer,
                                       config.learning_rate,
                                       config.key_space, dim);
        const std::vector<float> grad(dim, 0.01f);
        const std::vector<const float *> grads(trace.n_gpus(),
                                               grad.data());
        std::uint64_t applied = 0;
        const auto begin = Clock::now();
        for (const auto &step : writes) {
            for (const auto &[key, n] : step) {
                table.ApplyGradients(key, grads.data(), n, *optimizer);
                applied += n;
            }
        }
        out.apply_ns_per_row = PerUnitNs(Clock::now() - begin, applied);
    }
    return out;
}

PqReplay
ReplayPq(const Trace &trace, const EngineConfig &config, Tracer *tracer)
{
    ScopedSpan span(tracer, 0, "replay.pq");
    const std::size_t n_steps = trace.NumSteps();
    const std::uint32_t n_gpus = trace.n_gpus();
    const std::size_t lookahead = config.lookahead;
    TwoLevelPQConfig pq_config;
    pq_config.max_step = n_steps;
    pq_config.n_shards = std::max<std::size_t>(1, config.flush_threads);
    TwoLevelPQ queue(pq_config);
    GEntryRegistry registry(64, config.key_space);

    Clock::duration enqueue_time{};
    Clock::duration dequeue_time{};
    std::uint64_t registrations = 0;
    std::uint64_t claimed_entries = 0;
    std::uint64_t claims = 0;
    auto register_reads = [&](std::size_t s) {
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            for (Key key : trace.KeysFor(s, g))
                RegisterRead(queue, registry.GetOrCreate(key),
                             static_cast<Step>(s));
            registrations += trace.KeysFor(s, g).size();
        }
    };
    std::vector<ClaimTicket> claimed;
    auto noop = [](Key, const WriteRecord &) {};

    auto begin = Clock::now();
    for (std::size_t s = 0; s < std::min(lookahead, n_steps); ++s)
        register_reads(s);
    enqueue_time += Clock::now() - begin;
    for (std::size_t s = 0; s < n_steps; ++s) {
        begin = Clock::now();
        if (s + lookahead < n_steps)
            register_reads(s + lookahead);
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            for (Key key : trace.KeysFor(s, g))
                RegisterUpdate(queue, registry.GetOrCreate(key),
                               {static_cast<Step>(s), g, {}, {}});
            registrations += trace.KeysFor(s, g).size();
        }
        enqueue_time += Clock::now() - begin;

        // Flush everything before step s+1 may read (the gate's rule),
        // and the deferred rest with it, in flush-batch claims.
        begin = Clock::now();
        queue.SetScanBounds(static_cast<Step>(s + 1),
                            static_cast<Step>(s + 1 + lookahead));
        for (std::size_t shard = 0;; ++shard) {
            claimed.clear();
            if (queue.DequeueClaim(claimed, config.flush_batch, shard) == 0)
                break;
            ++claims;
            claimed_entries += claimed.size();
            for (const ClaimTicket &ticket : claimed)
                FlushClaimed(queue, ticket, noop);
        }
        dequeue_time += Clock::now() - begin;
    }

    PqReplay out;
    out.enqueue_ns = PerUnitNs(enqueue_time, registrations);
    out.dequeue_claim_ns = PerUnitNs(dequeue_time, claimed_entries);
    out.entries_per_claim =
        claims == 0 ? 0.0
                    : static_cast<double>(claimed_entries) /
                          static_cast<double>(claims);
    return out;
}

}  // namespace perfbench
