#include "pgo/pgo.hh"

#include <cmath>

#include "causal/causal.hh"
#include "fleet/fleet.hh"
#include "layout/placement.hh"
#include "net/collector.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "workloads/campaign.hh"

namespace ct::pgo {

namespace {

/** The one instrumented mote feeding the tracking bank. */
constexpr uint16_t kProbeMote = 1;

/** Ignore a procedure's drift until its tracking estimator has folded
 *  in this many observations: a freshly created estimator sits at the
 *  agnostic prior, which reads as huge "drift" against any converged
 *  reference. */
constexpr uint64_t kDriftMinObservations = 64;

} // namespace

ContinuousPgo::ContinuousPgo(workloads::Workload workload, PgoConfig config)
    : workload_(std::move(workload)), config_(std::move(config))
{
    CT_ASSERT(workload_.module != nullptr, "pgo: workload has no module");
    CT_ASSERT(config_.forgetting > 0.0 && config_.forgetting < 1.0,
              "pgo: forgetting must lie in (0, 1)");
    CT_ASSERT(config_.windowInvocations > 0,
              "pgo: windowInvocations must be >= 1");
}

PgoResult
ContinuousPgo::run()
{
    CT_SPAN("pgo.run");
    const ir::Module &module = *workload_.module;
    const sim::CostModel &costs = config_.sim.costs;
    const sim::PredictPolicy policy = config_.sim.policy;
    const double nested_probe_cycles = sim::nestedProbeCycles(costs);

    PgoResult result;

    // --- Bootstrap: the pipeline's measure -> estimate -> place, the
    // same campaign functions under the same seed, so a stationary
    // run's layout is the pipeline's "tomography" placement.
    auto lowered_natural = sim::lowerModule(module);
    sim::RunResult bootstrap;
    {
        CT_SPAN("pgo.bootstrap");
        bootstrap = workloads::measureLane(workload_, lowered_natural,
                                           config_.sim, config_.seed,
                                           config_.measureInvocations);
    }
    auto layout_estimate =
        workloads::estimateTrace(workload_, lowered_natural, config_.sim,
                                 config_.estimator, bootstrap.trace);
    std::vector<sim::BlockOrder> current_orders = workloads::placeFromProfile(
        module, layout_estimate.profile, config_.seed);
    result.initialOrders = current_orders;
    result.initialLayoutDigest = layout::layoutDigest(current_orders);
    auto lowered_current = sim::lowerModule(module, current_orders);

    // The frozen reference the drift statistic compares against.
    // Initialized from the layout estimate, then re-frozen below from
    // the tracking bank once it has digested the bootstrap trace.
    std::vector<std::vector<double>> frozen = layout_estimate.thetas;

    // The tracking bank: forgetting-mode estimators over the
    // instrumented lane's records. Recovery must rebuild with the
    // same forgetting to continue bitwise (see EstimatorBank ctor).
    net::EstimatorBank bank(module, lowered_natural, costs, policy,
                            config_.sim.cyclesPerTick, {},
                            nested_probe_cycles,
                            /*step_exponent=*/0.7, config_.forgetting);

    std::unique_ptr<store::Store> store;
    if (!config_.storeDir.empty())
        store = std::make_unique<store::Store>(config_.storeDir,
                                               config_.store);

    // Instrumented records feed the tracking bank (and the WAL) in
    // stream order.
    auto ingest = [&](const trace::TimingTrace &trace) {
        for (const auto &record : trace.records()) {
            bank.observe(kProbeMote, record);
            if (store)
                store->append(kProbeMote, record);
            if (config_.retainRecords)
                result.records.push_back(record);
        }
    };

    // Seed the bank (and the WAL) with the bootstrap trace, then
    // freeze the drift reference from the bank itself. Frozen and
    // tracking thetas then come from one estimator family, so a
    // stationary deployment's drift statistic is sampling noise
    // around zero — not the systematic EM-vs-streaming offset, which
    // would eat most of the detector's headroom.
    ingest(bootstrap.trace);
    for (ir::ProcId p = 0; p < module.procedureCount(); ++p) {
        const auto *est = bank.find(kProbeMote, p);
        if (est && p < frozen.size() && !est->theta().empty())
            frozen[p] = est->theta();
    }

    std::vector<Regime> regimes = config_.regimes;
    if (regimes.empty())
        regimes.push_back(Regime{.windows = config_.windows});

    DriftDetector detector(config_.drift);
    int64_t cumulative_regret = 0;
    size_t pending_swap = size_t(-1); // swap awaiting its post window
    size_t window = 0;

    for (size_t r = 0; r < regimes.size(); ++r) {
        const Regime &regime = regimes[r];
        const workloads::InputShift shift{regime.senseScale,
                                          regime.senseOffset,
                                          regime.radioScale,
                                          regime.radioOffset};
        for (size_t i = 0; i < regime.windows; ++i, ++window) {
            CT_SPAN("pgo.window");
            const uint64_t sw = workloads::windowSeed(config_.seed, window);

            // Instrumented lane: natural layout, probes on.
            sim::RunResult probe = workloads::measureLane(
                workload_, lowered_natural, config_.sim, sw,
                config_.windowInvocations, &shift);
            ingest(probe.trace);

            // Live + clairvoyant lanes: one evaluate lane, so cycle
            // differences are placement alone. The oracle re-places
            // from this window's own ground-truth profile — what
            // "re-place every window" would deploy.
            auto lanes = workloads::evaluateLane(
                workload_,
                {current_orders,
                 workloads::placeFromProfile(module, probe.profile, sw)},
                config_.sim, sw, config_.windowInvocations, &shift);
            const sim::RunResult &live = lanes[0];
            const sim::RunResult &oracle = lanes[1];

            WindowReport report;
            report.window = window;
            report.regime = r;
            report.mispredictRate = live.branches.mispredictRate();
            report.liveCycles = live.totalCycles;
            report.oracleCycles = oracle.totalCycles;
            report.regretCycles =
                int64_t(live.totalCycles) - int64_t(oracle.totalCycles);
            cumulative_regret += report.regretCycles;
            report.cumulativeRegretCycles = cumulative_regret;

            if (pending_swap != size_t(-1)) {
                result.swapEvents[pending_swap].postMispredictRate =
                    report.mispredictRate;
                result.swapEvents[pending_swap].postRegretCycles =
                    report.regretCycles;
                pending_swap = size_t(-1);
            }

            // Drift statistic: worst per-procedure divergence of the
            // tracking estimate from the frozen layout-time theta,
            // over procedures with enough evidence in the window.
            double stat = 0.0;
            std::vector<std::string> drifted;
            for (ir::ProcId p = 0; p < module.procedureCount(); ++p) {
                if (p >= frozen.size() || frozen[p].empty())
                    continue;
                const auto *est = bank.find(kProbeMote, p);
                if (!est || est->observations() < kDriftMinObservations)
                    continue;
                double d = est->driftFrom(frozen[p]).meanAbsDelta;
                stat = std::max(stat, d);
                if (d >= config_.drift.trigger)
                    drifted.push_back(module.procedure(p).name());
            }
            report.driftStat = stat;
            report.triggered = detector.step(stat);

            result.decisionLog += format(
                "w=%03zu r=%zu drift=%.6f mr=%.6f live=%llu oracle=%llu "
                "regret=%lld cum=%lld trig=%d\n",
                window, r, stat, report.mispredictRate,
                (unsigned long long)report.liveCycles,
                (unsigned long long)report.oracleCycles,
                (long long)report.regretCycles,
                (long long)report.cumulativeRegretCycles,
                int(report.triggered));

            if (report.triggered) {
                CT_SPAN("pgo.replace");
                ++result.triggers;

                // (1) Durability: fold the pre-drift history into a
                // checkpoint and reset the WAL to the regime boundary.
                if (store)
                    store->checkpointAndCompact(bank.snapshot());

                // (2) Re-placement, gated by the causal ranking over
                // the *current* layout: only procedures whose whatIf
                // delta clears the gate are worth re-placing.
                auto tracking = fleet::estimateFromSlots(
                    module, lowered_natural, costs, policy,
                    config_.sim.cyclesPerTick, nested_probe_cycles,
                    bank.snapshot());
                auto tracking_theta =
                    causal::normalizeTheta(module, tracking.thetas);
                causal::Engine engine(module, lowered_current, costs,
                                      policy, workload_.entry,
                                      tracking_theta);
                auto gate =
                    causal::rankingGate(engine, config_.gateFraction);

                auto mixed = current_orders;
                std::vector<std::string> survivors;
                for (const auto &entry : gate)
                    survivors.push_back(entry.name);
                if (config_.budgetEnabled) {
                    // Candidates per survivor: keep vs its fresh
                    // profile-guided order (computeOrder is
                    // deterministic for ProfileGuided, so the priced
                    // candidate IS the order the unbudgeted path
                    // would swap in). Greedy applies them best
                    // delta-per-flash-byte first while the budget
                    // holds.
                    budget::InstanceOptions opts;
                    opts.kinds = {layout::LayoutKind::ProfileGuided};
                    for (const auto &entry : gate)
                        opts.restrictTo.push_back(entry.proc);
                    auto instance = budget::buildInstance(
                        module, lowered_current, costs, policy,
                        workload_.entry, tracking_theta, tracking.profile,
                        config_.swapBudget, opts);
                    auto plan =
                        budget::solve(instance, budget::Solver::Greedy);
                    for (size_t g = 0; g < instance.groups.size(); ++g) {
                        const auto &group = instance.groups[g];
                        size_t c = plan.assignment.choice[g];
                        if (c != 0)
                            mixed[group.proc] = group.candidates[c].order;
                    }
                    result.budgetUpgrades += plan.upgrades;
                    result.budgetDeferred += plan.deferred;
                    result.budgetFlashBytes +=
                        plan.assignment.usage.flashBytes;
                    result.decisionLog += format(
                        "budget w=%03zu solver=%s up=%zu defer=%zu "
                        "flash=%llu ram=%llu nrg=%llu\n",
                        window, plan.solver.c_str(), plan.upgrades,
                        plan.deferred,
                        (unsigned long long)
                            plan.assignment.usage.flashBytes,
                        (unsigned long long)
                            plan.assignment.usage.ramBytes,
                        (unsigned long long)
                            plan.assignment.usage.energyNanojoules);
                } else {
                    auto fresh = workloads::placeFromProfile(
                        module, tracking.profile, sw);
                    for (const auto &entry : gate)
                        mixed[entry.proc] = fresh[entry.proc];
                }
                const uint64_t digest = layout::layoutDigest(mixed);
                const bool swapped =
                    digest != layout::layoutDigest(current_orders);
                // The trigger absorbed the tracked regime whether or
                // not the layout moved (the gate may find the current
                // layout already optimal for it): re-freeze the
                // reference at the tracking thetas so the detector
                // re-arms and stays sensitive to the *next* shift.
                for (ir::ProcId p = 0; p < module.procedureCount();
                     ++p) {
                    if (p < tracking.thetas.size() &&
                        !tracking.thetas[p].empty())
                        frozen[p] = tracking.thetas[p];
                }
                if (swapped) {
                    current_orders = std::move(mixed);
                    lowered_current =
                        sim::lowerModule(module, current_orders);
                    ++result.swaps;
                    SwapEvent event;
                    event.window = window;
                    event.regime = r;
                    event.preMispredictRate = report.mispredictRate;
                    event.postMispredictRate = report.mispredictRate;
                    event.preRegretCycles = report.regretCycles;
                    event.postRegretCycles = report.regretCycles;
                    event.gateSurvivors = gate.size();
                    event.layoutDigest = digest;
                    result.swapEvents.push_back(event);
                    pending_swap = result.swapEvents.size() - 1;
                    report.swapped = true;
                }

                result.decisionLog += format(
                    "trigger w=%03zu stat=%.6f drifted=%s gate=%s "
                    "swap=%d digest=%016llx\n",
                    window, stat, ("[" + join(drifted, ",") + "]").c_str(),
                    ("[" + join(survivors, ",") + "]").c_str(), int(swapped),
                    (unsigned long long)digest);
            }

            result.windowReports.push_back(report);
            if (obs::metricsEnabled()) {
                auto &m = obs::metrics();
                m.counter("pgo.windows").add(1);
                // Histograms hold integers; drift lives in [0, 1], so
                // record micro-units.
                m.histogram("pgo.window_drift_micro")
                    .record(int64_t(std::llround(stat * 1e6)));
                m.counter("pgo.regret_cycles")
                    .add(report.regretCycles > 0
                             ? uint64_t(report.regretCycles)
                             : 0);
            }
        }
    }

    if (store) {
        store->flush();
        result.compactions = store->stats().driftCompactions;
    }
    result.windows = window;
    result.finalOrders = current_orders;
    result.finalLayoutDigest = layout::layoutDigest(current_orders);
    result.cumulativeRegretCycles = cumulative_regret;
    result.finalMispredictRate = result.windowReports.empty()
                                     ? 0.0
                                     : result.windowReports.back()
                                           .mispredictRate;
    result.finalBank = bank.snapshot();

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("pgo.triggers").add(result.triggers);
        m.counter("pgo.swaps").add(result.swaps);
        m.counter("pgo.compactions").add(result.compactions);
        m.gauge("pgo.cumulative_regret_cycles")
            .set(double(result.cumulativeRegretCycles));
        m.gauge("pgo.final_mispredict").set(result.finalMispredictRate);
        if (config_.budgetEnabled) {
            m.counter("pgo.budget_upgrades").add(result.budgetUpgrades);
            m.counter("pgo.budget_deferred").add(result.budgetDeferred);
            m.counter("pgo.budget_flash_bytes")
                .add(result.budgetFlashBytes);
        }
    }
    return result;
}

} // namespace ct::pgo
