#include "api/pipeline.hh"

#include "layout/evaluator.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/metrics.hh"
#include "util/logging.hh"
#include "workloads/campaign.hh"

namespace ct::api {

const LayoutOutcome &
PipelineResult::outcome(const std::string &name) const
{
    for (const auto &out : outcomes) {
        if (out.name == name)
            return out;
    }
    fatal("no layout outcome named '", name, "'");
}

double
PipelineResult::cyclesImprovementPct() const
{
    double base = double(outcome("natural").totalCycles);
    double opt = double(outcome("tomography").totalCycles);
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

double
PipelineResult::perfectImprovementPct() const
{
    double base = double(outcome("natural").totalCycles);
    double opt = double(outcome("perfect").totalCycles);
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

double
PipelineResult::mispredictReduction() const
{
    return outcome("natural").mispredictRate -
           outcome("tomography").mispredictRate;
}

double
PipelineResult::energyImprovementPct() const
{
    double base = outcome("natural").energyMicrojoules;
    double opt = outcome("tomography").energyMicrojoules;
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

TomographyPipeline::TomographyPipeline(workloads::Workload workload,
                                       PipelineConfig config)
    : workload_(std::move(workload)), config_(std::move(config))
{
    CT_ASSERT(workload_.module != nullptr, "workload has no module");
    natural_ = sim::lowerModule(*workload_.module);
}

sim::RunResult
TomographyPipeline::measure()
{
    CT_SPAN("pipeline.measure");
    auto run = workloads::measureLane(workload_, natural_, config_.sim,
                                      config_.seed,
                                      config_.measureInvocations);
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("pipeline.measure.invocations")
            .add(config_.measureInvocations);
        m.counter("pipeline.measure.records").add(run.trace.size());
    }
    return run;
}

tomography::ModuleEstimate
TomographyPipeline::estimate(const trace::TimingTrace &trace)
{
    CT_SPAN("pipeline.estimate");
    auto estimate = workloads::estimateTrace(workload_, natural_, config_.sim,
                                             config_.estimator, trace);
    if (obs::metricsEnabled()) {
        size_t estimated = 0;
        for (const auto &theta : estimate.thetas)
            estimated += !theta.empty();
        obs::metrics().counter("pipeline.estimate.procs").add(estimated);
    }
    return estimate;
}

causal::CausalProfile
TomographyPipeline::causalProfile(const sim::RunResult &measure_run,
                                  const tomography::ModuleEstimate &estimate)
{
    CT_SPAN("pipeline.causal");
    const CausalConfig &cfg = config_.causalProfile;

    causal::ModuleTheta theta =
        cfg.useTrueProfile
            ? causal::thetaFromProfile(*workload_.module,
                                       measure_run.profile)
            : causal::normalizeTheta(*workload_.module, estimate.thetas);
    causal::Engine engine(*workload_.module, natural_, config_.sim.costs,
                          config_.sim.policy, workload_.entry,
                          std::move(theta));

    causal::ProfileOptions options;
    options.dials = cfg.dials;
    options.perBlock = cfg.perBlock;
    options.workload = workload_.name;
    auto profile = engine.profile(options);

    if (!cfg.jsonOut.empty()) {
        profile.writeJson(cfg.jsonOut);
        inform("wrote causal profile ", cfg.jsonOut);
    }
    if (!cfg.csvOut.empty()) {
        profile.writeCsv(cfg.csvOut);
        inform("wrote causal profile ", cfg.csvOut);
    }
    return profile;
}

BudgetOutcome
TomographyPipeline::planBudget(const tomography::ModuleEstimate &estimate)
{
    CT_SPAN("pipeline.budget");
    const BudgetConfig &cfg = config_.budget;

    auto theta = causal::normalizeTheta(*workload_.module, estimate.thetas);
    auto instance = budget::buildInstance(
        *workload_.module, natural_, config_.sim.costs, config_.sim.policy,
        workload_.entry, theta, estimate.profile, cfg.spec, cfg.options);

    BudgetOutcome out;
    out.enabled = true;
    out.groups = instance.groups.size();
    for (const auto &group : instance.groups)
        out.candidates += group.candidates.size();
    out.baselineCyclesPerEvent = instance.baselineCyclesPerEvent;
    out.plan = budget::solve(instance, cfg.solver);
    out.orders = budget::applyAssignment(
        instance, out.plan.assignment, workload_.module->procedureCount());
    for (size_t g = 0; g < instance.groups.size(); ++g) {
        const auto &group = instance.groups[g];
        const auto &cand = group.candidates[out.plan.assignment.choice[g]];
        out.choices.push_back({group.name, cand.name,
                               cand.gainCyclesPerEvent, cand.flashBytes});
    }
    return out;
}

std::vector<sim::BlockOrder>
TomographyPipeline::optimize(const ir::ModuleProfile &profile)
{
    CT_SPAN("pipeline.optimize");
    auto orders =
        workloads::placeFromProfile(*workload_.module, profile, config_.seed);
    if (obs::metricsEnabled())
        obs::metrics().counter("pipeline.optimize.procs").add(orders.size());
    return orders;
}

LayoutOutcome
TomographyPipeline::evaluate(const std::string &name,
                             const std::vector<sim::BlockOrder> &orders)
{
    return evaluatePlacements({name}, {orders}).front();
}

std::vector<LayoutOutcome>
TomographyPipeline::evaluatePlacements(
    const std::vector<std::string> &names,
    const std::vector<std::vector<sim::BlockOrder>> &placements)
{
    CT_SPAN("pipeline.evaluate");
    // Deployment build (no probes); every placement sees the same events.
    auto runs = workloads::evaluateLane(workload_, placements, config_.sim,
                                        config_.seed, config_.evalInvocations);

    std::vector<LayoutOutcome> outcomes;
    for (size_t i = 0; i < runs.size(); ++i) {
        const sim::RunResult &run = runs[i];
        LayoutOutcome out;
        out.name = names[i];
        out.mispredictRate = run.branches.mispredictRate();
        out.takenRate = run.branches.takenRate();
        out.totalCycles = run.totalCycles;
        out.mispredicted = run.branches.mispredicted;
        out.branchesExecuted = run.branches.executed;
        out.dynamicJumps = run.dynamicJumps;
        out.energyMicrojoules =
            sim::telosEnergyModel().energyMicrojoules(run.activity);
        outcomes.push_back(std::move(out));
    }
    if (obs::metricsEnabled())
        obs::metrics()
            .counter("pipeline.evaluate.placements")
            .add(placements.size());
    return outcomes;
}

PipelineResult
TomographyPipeline::run()
{
    // Resolve exporter destinations: explicit config wins, then the
    // environment, then off. Enabling is process-wide so that the
    // simulator and estimators record too, without signature churn.
    std::string trace_path = config_.traceOut.empty()
                                 ? obs::traceOutPathFromEnv()
                                 : config_.traceOut;
    std::string metrics_path = config_.metricsOut.empty()
                                   ? obs::metricsOutPathFromEnv()
                                   : config_.metricsOut;
    const bool was_tracing = obs::tracer().enabled();
    const bool was_recording = obs::metricsEnabled();
    if (!trace_path.empty())
        obs::tracer().setEnabled(true);
    if (!metrics_path.empty())
        obs::setMetricsEnabled(true);

    PipelineResult result = runStages();

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("pipeline.runs").add(1);
        m.gauge("pipeline.branch_mae").set(result.branchMae);
        m.gauge("pipeline.branch_max_error").set(result.branchMaxError);
        m.gauge("pipeline.cycles_improvement_pct")
            .set(result.cyclesImprovementPct());
        m.gauge("pipeline.mispredict_reduction")
            .set(result.mispredictReduction());
    }
    if (!trace_path.empty()) {
        obs::tracer().writeJson(trace_path);
        inform("wrote span trace ", trace_path);
    }
    if (!metrics_path.empty()) {
        obs::metrics().writeJson(metrics_path);
        inform("wrote metrics ", metrics_path);
    }
    // Hand the process back as found: later runs record only if their
    // own destinations (or the caller) turn the exporters on.
    obs::tracer().setEnabled(was_tracing);
    obs::setMetricsEnabled(was_recording);
    return result;
}

PipelineResult
TomographyPipeline::runStages()
{
    CT_SPAN("pipeline.run");
    PipelineResult result;
    result.measureRun = measure();
    result.estimate = estimate(result.measureRun.trace);

    // Accuracy scoring over every procedure that was actually invoked
    // and has at least one conditional branch.
    for (ir::ProcId id = 0; id < workload_.module->procedureCount(); ++id) {
        const auto &proc = workload_.module->procedure(id);
        if (result.measureRun.invocations[id] == 0 ||
            proc.branchBlocks().empty()) {
            continue;
        }
        auto truth =
            result.measureRun.profile[id].branchProbabilities(proc);
        const auto &est = result.estimate.thetas[id];
        CT_ASSERT(truth.size() == est.size(), "theta size mismatch");
        result.trueTheta.insert(result.trueTheta.end(), truth.begin(),
                                truth.end());
        result.estimatedTheta.insert(result.estimatedTheta.end(),
                                     est.begin(), est.end());
    }
    if (!result.trueTheta.empty()) {
        result.branchMae =
            meanAbsoluteError(result.estimatedTheta, result.trueTheta);
        result.branchMaxError =
            maxAbsoluteError(result.estimatedTheta, result.trueTheta);
    }

    if (config_.causalProfile.enabled)
        result.causal = causalProfile(result.measureRun, result.estimate);

    // Budget-constrained selection over the estimate (the chosen mixed
    // layout joins the evaluated candidates below as "budget").
    if (config_.budget.enabled)
        result.budget = planBudget(result.estimate);

    // Candidate placements, in outcome order. The orders share one Rng
    // stream; one evaluate lane then simulates the first and prices
    // the rest.
    Rng rng(workloads::candidateSeed(config_.seed));
    const auto &module = *workload_.module;
    std::vector<std::string> names;
    std::vector<std::vector<sim::BlockOrder>> placements;
    auto candidate = [&](const char *name,
                         std::vector<sim::BlockOrder> orders) {
        names.push_back(name);
        placements.push_back(std::move(orders));
    };
    auto baseline = [&](const char *name, layout::LayoutKind kind) {
        candidate(name, layout::computeModuleOrders(
                            module, result.measureRun.profile, kind, rng));
    };
    baseline("natural", layout::LayoutKind::Natural);
    baseline("random", layout::LayoutKind::Random);
    baseline("dfs", layout::LayoutKind::Dfs);
    candidate("tomography", optimize(result.estimate.profile));
    baseline("perfect", layout::LayoutKind::ProfileGuided);
    if (config_.budget.enabled)
        candidate("budget", result.budget.orders);

    result.outcomes = evaluatePlacements(names, placements);
    return result;
}

} // namespace ct::api
