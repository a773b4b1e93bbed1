#include "workloads/campaign.hh"

#include <cmath>
#include <optional>

#include "layout/placement.hh"
#include "stats/rng.hh"

namespace ct::workloads {

namespace {

/** A workload's scripted streams seen through an InputShift. */
class ShiftedInputs : public sim::InputSource
{
  public:
    ShiftedInputs(sim::InputSource &base, const InputShift &shift)
        : base_(base), shift_(shift)
    {
    }

    ir::Word sense(int channel) override
    {
        return apply(base_.sense(channel), shift_.senseScale,
                     shift_.senseOffset);
    }

    ir::Word radioRx() override
    {
        return apply(base_.radioRx(), shift_.radioScale, shift_.radioOffset);
    }

  private:
    static ir::Word apply(ir::Word v, double scale, double offset)
    {
        return ir::Word(std::llround(scale * double(v) + offset));
    }

    sim::InputSource &base_;
    InputShift shift_;
};

sim::RunResult
simulate(const Workload &workload, sim::LoweredModule lowered,
         const sim::SimConfig &config, uint64_t input_seed,
         uint64_t sim_seed, size_t invocations, const InputShift *shift)
{
    auto inputs = workload.makeInputs(input_seed);
    sim::InputSource *source = inputs.get();
    std::optional<ShiftedInputs> shifted;
    if (shift)
        source = &shifted.emplace(*inputs, *shift);
    sim::Simulator simulator(*workload.module, std::move(lowered), config,
                             *source, sim_seed);
    return simulator.run(workload.entry, invocations);
}

} // namespace

uint64_t
linkSeed(uint64_t seed, size_t child)
{
    uint64_t state = seed ^ 0xd1b54a32d192ed03ULL * (uint64_t(child) + 1);
    return splitmix64(state);
}

MoteSeeds
moteSeeds(uint64_t seed, uint64_t key)
{
    uint64_t state = seed ^ kGolden * (key + 1);
    MoteSeeds seeds;
    seeds.sim = splitmix64(state);
    seeds.inputs = splitmix64(state);
    seeds.channel = splitmix64(state);
    return seeds;
}

sim::RunResult
measureLane(const Workload &workload, const sim::LoweredModule &natural,
            const sim::SimConfig &config, uint64_t seed, size_t invocations,
            const InputShift *shift)
{
    sim::SimConfig probed = config;
    probed.timingProbes = true;
    return simulate(workload, natural, probed, seed, seed ^ 0x6d656173,
                    invocations, shift); // "meas"
}

std::vector<sim::RunResult>
evaluateLane(const Workload &workload,
             const std::vector<std::vector<sim::BlockOrder>> &placements,
             const sim::SimConfig &config, uint64_t seed, size_t invocations,
             const InputShift *shift)
{
    sim::SimConfig deployed = config;
    deployed.timingProbes = false;
    const ir::Module &module = *workload.module;
    const bool priced = !sim::readsTimer(module);
    std::vector<sim::RunResult> runs;
    runs.reserve(placements.size());
    for (const auto &orders : placements) {
        auto lowered = sim::lowerModule(module, orders);
        if (priced && !runs.empty())
            runs.push_back(sim::Simulator::price(module, lowered, deployed,
                                                 runs.front()));
        else
            runs.push_back(simulate(workload, std::move(lowered), deployed,
                                    seed + 1, seed ^ 0x6576616c, invocations,
                                    shift)); // "eval"
        runs.back().procCycles.clear();
    }
    return runs;
}

sim::RunResult
simulateMote(const Workload &workload, const sim::LoweredModule &lowered,
             const sim::SimConfig &config, const MoteSeeds &seeds,
             size_t invocations)
{
    return simulate(workload, lowered, config, seeds.inputs, seeds.sim,
                    invocations, nullptr);
}

tomography::ModuleEstimate
estimateTrace(const Workload &workload, const sim::LoweredModule &natural,
              const sim::SimConfig &config, tomography::EstimatorKind kind,
              const trace::TimingTrace &trace)
{
    auto estimator = tomography::makeEstimator(kind, {});
    return tomography::estimateModule(
        *workload.module, natural, config.costs, config.policy,
        config.cyclesPerTick, sim::nestedProbeCycles(config.costs), trace,
        *estimator);
}

std::vector<sim::BlockOrder>
placeFromProfile(const ir::Module &module, const ir::ModuleProfile &profile,
                 uint64_t seed)
{
    Rng rng(seed ^ 0x6c61796f); // "layo"
    return layout::computeModuleOrders(module, profile,
                                       layout::LayoutKind::ProfileGuided, rng);
}

} // namespace ct::workloads
