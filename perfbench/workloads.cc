#include "workloads.h"

#include "common/distribution.h"
#include "common/rng.h"
#include "data/dataset_spec.h"
#include "models/dlrm.h"
#include "models/kg_model.h"
#include "runtime/microtask.h"

namespace perfbench {
namespace {

using namespace frugal;


EngineConfig
BaseConfig(std::size_t dim, std::uint64_t key_space)
{
    EngineConfig config;
    config.n_gpus = kTrainers;
    config.flush_threads = kTrainers;
    config.dim = dim;
    config.key_space = key_space;
    return config;
}

/** Zipf 0.99 keys with a linear gradient: the P²F control plane with
 *  next to no model work. */
class ZipfHot final : public Workload
{
  public:
    ZipfHot(std::uint64_t seed, std::size_t steps)
        : trace_(Make(seed, steps))
    {
        config = BaseConfig(kDim, kKeySpace);
        for (std::size_t s = 0; s < trace_.NumSteps(); ++s)
            samples += trace_.StepAt(s).TotalKeys();
    }

    const Trace &trace() const override { return trace_; }

    ModelInstance
    NewModel() const override
    {
        return {nullptr, MakeLinearGradTask(), {}};
    }

  private:
    static constexpr std::uint64_t kKeySpace = 65'536;
    static constexpr std::size_t kDim = 8;
    static constexpr std::size_t kKeysPerTrainer = 256;

    static Trace
    Make(std::uint64_t seed, std::size_t steps)
    {
        Rng rng(seed);
        ZipfDistribution dist(kKeySpace, 0.99);
        return Trace::Synthetic(dist, rng, steps, kTrainers,
                                kKeysPerTrainer);
    }

    Trace trace_;
};

/** DLRM on Criteo at 1/10000 scale: most wall time in the model. */
class RecDlrm final : public Workload
{
  public:
    RecDlrm(std::uint64_t seed, std::size_t steps)
    {
        const DatasetSpec spec = DatasetByName("Criteo").Scaled(10000.0);
        RecDatasetGenerator gen(spec, seed);
        data_ = DlrmWorkload::Build(gen, steps, kTrainers,
                                    kSamplesPerTrainer);
        model_config_.n_features = gen.n_features();
        model_config_.dim = spec.embedding_dim;
        model_config_.hidden = {64, 32};
        model_config_.n_gpus = kTrainers;
        model_config_.seed = seed;
        config = BaseConfig(spec.embedding_dim, gen.key_space());
        samples = static_cast<std::uint64_t>(steps) * kTrainers *
                  kSamplesPerTrainer;
    }

    const Trace &trace() const override { return data_.trace; }

    ModelInstance
    NewModel() const override
    {
        auto model = std::make_shared<DlrmModel>(model_config_);
        return {model, model->BindGradFn(data_), model->BindStepHook()};
    }

  private:
    static constexpr std::size_t kSamplesPerTrainer = 64;

    DlrmWorkload data_;
    DlrmConfig model_config_;
};

/** TransE on full-scale FB15k with 8 uniform negatives per triple:
 *  wide, mostly cold write sets. */
class KgWide final : public Workload
{
  public:
    KgWide(std::uint64_t seed, std::size_t steps)
    {
        const DatasetSpec &spec = DatasetByName("FB15k");
        KgDatasetGenerator gen(spec, kNegatives, seed);
        data_ = KgWorkload::Build(gen, steps, kTrainers,
                                  kTriplesPerTrainer);
        model_config_.kind = KgScorerKind::kTransE;
        model_config_.dim = kDim;
        model_config_.n_gpus = kTrainers;
        config = BaseConfig(kDim, gen.key_space());
        samples = static_cast<std::uint64_t>(steps) * kTrainers *
                  kTriplesPerTrainer;
    }

    const Trace &trace() const override { return data_.trace; }

    ModelInstance
    NewModel() const override
    {
        auto model = std::make_shared<KgModel>(model_config_);
        return {model, model->BindGradFn(data_), model->BindStepHook()};
    }

  private:
    static constexpr std::size_t kDim = 32;
    static constexpr std::size_t kNegatives = 8;
    static constexpr std::size_t kTriplesPerTrainer = 64;

    KgWorkload data_;
    KgModelConfig model_config_;
};

}  // namespace

EmbeddingTableConfig
TableConfigOf(const EngineConfig &config)
{
    EmbeddingTableConfig tc;
    tc.key_space = config.key_space;
    tc.dim = config.dim;
    tc.init_seed = config.init_seed;
    tc.init_scale = config.init_scale;
    return tc;
}

const std::vector<std::string> &
WorkloadNames()
{
    static const std::vector<std::string> names = {"zipf-hot", "rec-dlrm",
                                                   "kg-wide"};
    return names;
}

std::size_t
DefaultSteps(const std::string &name)
{
    // About 1 s of Run() each on a 4-core host: long enough to beat timer
    // noise, short enough for many runs, and so a robust median, per
    // --seconds.
    if (name == "zipf-hot")
        return 1500;
    if (name == "rec-dlrm")
        return 200;
    return 300;
}

std::unique_ptr<Workload>
BuildWorkload(const std::string &name, std::uint64_t seed,
              std::size_t steps)
{
    if (steps == 0)
        steps = DefaultSteps(name);
    if (name == "zipf-hot")
        return std::make_unique<ZipfHot>(seed, steps);
    if (name == "rec-dlrm")
        return std::make_unique<RecDlrm>(seed, steps);
    if (name == "kg-wide")
        return std::make_unique<KgWide>(seed, steps);
    return nullptr;
}

}  // namespace perfbench
