#include "tomography/estimator.hh"

#include "tomography/em_estimator.hh"
#include "tomography/linear_estimator.hh"
#include "tomography/moment_estimator.hh"
#include "util/logging.hh"

namespace ct::tomography {

const char *
estimatorName(EstimatorKind kind)
{
    switch (kind) {
      case EstimatorKind::Linear: return "linear";
      case EstimatorKind::Em: return "em";
      case EstimatorKind::Moment: return "moment";
    }
    panic("estimatorName: bad kind");
}

std::unique_ptr<Estimator>
makeEstimator(EstimatorKind kind, const EstimatorOptions &options)
{
    switch (kind) {
      case EstimatorKind::Linear:
        return std::make_unique<LinearTomographyEstimator>(options);
      case EstimatorKind::Em:
        return std::make_unique<EmPathEstimator>(options);
      case EstimatorKind::Moment:
        return std::make_unique<MomentEstimator>(options);
    }
    panic("makeEstimator: bad kind");
}

ModuleEstimate
estimateBottomUp(const ir::Module &module, const sim::LoweredModule &lowered,
                 const sim::CostModel &costs, sim::PredictPolicy policy,
                 uint64_t cycles_per_tick, double nested_probe_cycles,
                 const ThetaSource &theta_for)
{
    ModuleEstimate out;
    out.profile.resize(module.procedureCount());
    out.thetas.resize(module.procedureCount());
    out.results.resize(module.procedureCount());
    out.meanCycles.assign(module.procedureCount(), 0.0);
    out.varCycles.assign(module.procedureCount(), 0.0);
    for (ir::ProcId id : bottomUpOrder(module)) {
        const auto &proc = module.procedure(id);
        TimingModel model(proc, lowered.procs[id], costs, policy,
                          cycles_per_tick, out.meanCycles,
                          nested_probe_cycles, out.varCycles);
        auto theta = theta_for(id, model, out.results[id]);
        out.thetas[id] = theta;
        out.meanCycles[id] = model.meanCycles(theta);
        out.varCycles[id] = model.varianceCycles(theta);
        out.profile[id] = model.profileFor(theta);
    }
    return out;
}

ModuleEstimate
estimateModule(const ir::Module &module, const sim::LoweredModule &lowered,
               const sim::CostModel &costs, sim::PredictPolicy policy,
               uint64_t cycles_per_tick, double nested_probe_cycles,
               const trace::TimingTrace &trace, const Estimator &estimator)
{
    return estimateBottomUp(
        module, lowered, costs, policy, cycles_per_tick, nested_probe_cycles,
        [&](ir::ProcId id, const TimingModel &model, EstimateResult &result) {
            auto durations = trace.durations(id);
            // Absent or branch-free: nothing to estimate.
            if (durations.empty() || model.paramCount() == 0)
                return std::vector<double>(model.paramCount(), 0.5);
            result = estimator.estimate(model, durations);
            return result.theta;
        });
}

} // namespace ct::tomography
