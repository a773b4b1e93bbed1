/**
 * @file
 * E8 / Fig. 6 — design ablations:
 *   (a) estimator algorithm (accuracy vs estimation wall time),
 *   (b) path-enumeration visit bound for the loopy workloads,
 *   (c) EM re-enumeration phase on/off,
 *   (d) prediction-policy / cost-model sensitivity of the end-to-end
 *       improvement.
 */

#include "common.hh"

#include "exec/thread_pool.hh"
#include "layout/evaluator.hh"
#include "tomography/streaming.hh"

using namespace ct;
using namespace ct::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"samples", "ticks", "seed", "jobs"});
    size_t samples = size_t(args.getLong("samples", 2000));
    uint64_t ticks = uint64_t(args.getLong("ticks", 4));
    uint64_t seed = uint64_t(args.getLong("seed", 1));
    size_t jobs = jobsFromArgs(args);

    auto suite = workloads::allWorkloads();
    exec::ThreadPool pool(jobs);

    // (a) Estimator algorithm: accuracy and cost.
    {
        TablePrinter table("Fig 6a: estimator ablation (suite means)");
        table.setHeader(
            {"estimator", "MAE", "RMSE", "max err", "est. time ms"});
        for (auto kind :
             {tomography::EstimatorKind::Linear, tomography::EstimatorKind::Em,
              tomography::EstimatorKind::Moment}) {
            struct Cell
            {
                double mae = 0.0, rmse = 0.0, worst = 0.0, ms = 0.0;
            };
            auto cells = exec::parallelMap(pool, suite.size(), [&](size_t w) {
                const auto &workload = suite[w];
                sim::SimConfig config;
                config.cyclesPerTick = ticks;
                auto inputs = workload.makeInputs(seed);
                sim::Simulator simulator(
                    *workload.module, sim::lowerModule(*workload.module),
                    config, *inputs, seed ^ 0xbe9c);
                auto run = simulator.run(workload.entry, samples);

                tomography::ModuleEstimate estimate;
                int64_t us = spanUs("bench.fig6.estimate", [&] {
                    estimate =
                        estimateFromTrace(workload, run.trace, ticks, kind);
                });
                Cell out;
                out.ms = double(us) / 1e3;

                auto accuracy = scoreAccuracy(workload, run, estimate);
                out.mae = accuracy.mae;
                out.rmse = accuracy.rmse;
                out.worst = accuracy.maxError;
                return out;
            });
            double mae = 0.0, rmse = 0.0, worst = 0.0, ms = 0.0;
            for (const auto &c : cells) {
                mae += c.mae;
                rmse += c.rmse;
                worst = std::max(worst, c.worst);
                ms += c.ms;
            }
            double n = double(suite.size());
            table.row(tomography::estimatorName(kind), mae / n, rmse / n,
                      worst, ms / n);
        }
        emit(table, "fig6a_estimators");
    }

    // (b) Path-bound sensitivity on the loopy workloads.
    {
        TablePrinter table("Fig 6b: EM path bound (maxVisitsPerState)");
        table.setHeader({"bound", "crc16 MAE", "crc16 paths",
                         "sense_and_send MAE", "covered mass (crc16)"});
        auto crc = workloads::workloadByName("crc16");
        auto sns = workloads::workloadByName("sense_and_send");
        auto loopy = runCampaigns({crc, sns}, samples, ticks,
                                  tomography::EstimatorKind::Em, seed, {},
                                  jobs);
        const auto &crc_run = loopy[0];
        const auto &sns_run = loopy[1];

        for (uint32_t bound : {3u, 6u, 9u, 12u, 16u}) {
            tomography::EstimatorOptions options;
            options.pathEnum.maxVisitsPerState = bound;
            auto crc_est = estimateFromTrace(
                crc, crc_run.run.trace, ticks, tomography::EstimatorKind::Em,
                options);
            auto sns_est = estimateFromTrace(
                sns, sns_run.run.trace, ticks, tomography::EstimatorKind::Em,
                options);
            const auto &diag = crc_est.results[crc.entry];
            table.row(size_t(bound),
                      scoreAccuracy(crc, crc_run.run, crc_est).mae,
                      diag.pathCount,
                      scoreAccuracy(sns, sns_run.run, sns_est).mae,
                      diag.coveredPathMass);
        }
        emit(table, "fig6b_pathbound");
    }

    // (c) EM re-enumeration phase.
    {
        TablePrinter table("Fig 6c: EM re-enumeration phase (suite means)");
        table.setHeader({"reenumerate", "MAE", "max err"});
        for (bool reenum : {false, true}) {
            tomography::EstimatorOptions options;
            options.reenumerate = reenum;
            auto campaigns = runCampaigns(suite, samples, ticks,
                                          tomography::EstimatorKind::Em,
                                          seed, options, jobs);
            double mae = 0.0, worst = 0.0;
            for (const auto &campaign : campaigns) {
                mae += campaign.accuracy.mae;
                worst = std::max(worst, campaign.accuracy.maxError);
            }
            table.row(reenum ? "on" : "off", mae / double(suite.size()),
                      worst);
        }
        emit(table, "fig6c_reenumeration");
    }

    // (d) Policy / cost-model sensitivity of the end-to-end win.
    {
        TablePrinter table(
            "Fig 6d: end-to-end improvement by core configuration");
        table.setHeader({"config", "mean tomography %", "mean perfect %"});
        struct Variant
        {
            const char *name;
            sim::PredictPolicy policy;
            sim::CostModel costs;
        };
        const Variant variants[] = {
            {"telos/not-taken", sim::PredictPolicy::NotTaken,
             sim::telosCostModel()},
            {"telos/btfn", sim::PredictPolicy::BTFN, sim::telosCostModel()},
            {"micaz/not-taken", sim::PredictPolicy::NotTaken,
             sim::micazCostModel()},
        };
        for (const auto &variant : variants) {
            struct Cell
            {
                double tomo = 0.0, perfect = 0.0;
            };
            auto cells = exec::parallelMap(pool, suite.size(), [&](size_t w) {
                api::PipelineConfig config;
                config.measureInvocations = samples;
                config.evalInvocations = samples * 2;
                config.sim.cyclesPerTick = ticks;
                config.sim.policy = variant.policy;
                config.sim.costs = variant.costs;
                config.seed = seed;
                config.jobs = 1; // one pipeline per worker
                api::TomographyPipeline pipeline(suite[w], config);
                auto result = pipeline.run();
                return Cell{result.cyclesImprovementPct(),
                            result.perfectImprovementPct()};
            });
            double tomo = 0.0, perfect = 0.0;
            for (const auto &c : cells) {
                tomo += c.tomo;
                perfect += c.perfect;
            }
            table.row(variant.name, tomo / double(suite.size()),
                      perfect / double(suite.size()));
        }
        emit(table, "fig6d_coreconfig");
    }

    // (e) Chain heuristic vs exhaustive optimum: on every procedure
    // small enough to brute-force, compare the expected transfer cycles
    // of the Pettis-Hansen order against the true optimum.
    {
        TablePrinter table(
            "Fig 6e: greedy chains vs exhaustive-optimal placement");
        table.setHeader({"workload/proc", "natural cyc", "greedy cyc",
                         "optimal cyc", "greedy gap %"});
        sim::CostModel costs = sim::telosCostModel();
        auto policy = sim::PredictPolicy::NotTaken;

        struct Row
        {
            std::string name;
            double natural, greedy, best, gap;
        };
        auto per_workload =
            exec::parallelMap(pool, suite.size(), [&](size_t w) {
                const auto &workload = suite[w];
                sim::SimConfig config;
                config.cyclesPerTick = ticks;
                auto inputs = workload.makeInputs(seed);
                sim::Simulator simulator(
                    *workload.module, sim::lowerModule(*workload.module),
                    config, *inputs, seed ^ 0xbe9c);
                auto run = simulator.run(workload.entry, samples);

                std::vector<Row> rows;
                for (const auto &proc : workload.module->procedures()) {
                    if (proc.blockCount() > 9 ||
                        run.invocations[proc.id()] == 0) {
                        continue;
                    }
                    const auto &profile = run.profile[proc.id()];
                    Rng rng(seed);
                    auto greedy = layout::computeOrder(
                        proc, profile, layout::LayoutKind::ProfileGuided,
                        rng);
                    auto best =
                        layout::optimalOrder(proc, profile, costs, policy);

                    double c_nat = layout::evaluatePlacement(
                        proc, sim::naturalOrder(proc), profile, costs,
                        policy).transferCycles;
                    double c_greedy = layout::evaluatePlacement(
                        proc, greedy, profile, costs, policy).transferCycles;
                    double c_best = layout::evaluatePlacement(
                        proc, best, profile, costs, policy).transferCycles;
                    double gap = c_best > 0.0
                                     ? 100.0 * (c_greedy - c_best) / c_best
                                     : 0.0;
                    rows.push_back({workload.name + "/" + proc.name(),
                                    c_nat, c_greedy, c_best, gap});
                }
                return rows;
            });
        for (const auto &rows : per_workload)
            for (const auto &r : rows)
                table.row(r.name, r.natural, r.greedy, r.best, r.gap);
        emit(table, "fig6e_optimality");
    }

    // (f) Streaming (online EM) vs batch EM: error of the sink-side
    // O(1)-memory estimator as the report stream grows.
    {
        TablePrinter table(
            "Fig 6f: streaming vs batch EM (suite mean MAE)");
        table.setHeader({"reports seen", "streaming", "batch"});

        std::vector<size_t> points = {50, 200, 1000, size_t(samples)};
        auto full = runCampaigns(suite, samples, ticks,
                                 tomography::EstimatorKind::Em, seed, {},
                                 jobs);

        for (size_t n : points) {
            struct Cell
            {
                double stream = 0.0, batch = 0.0;
            };
            auto cells = exec::parallelMap(pool, suite.size(), [&](size_t w) {
                const auto &workload = suite[w];
                auto durations =
                    full[w].run.trace.durations(workload.entry);
                if (durations.size() > n)
                    durations.resize(n);

                sim::SimConfig config;
                auto lowered = sim::lowerModule(*workload.module);
                auto means = tomography::meanCyclesBottomUp(
                    *workload.module, lowered, config.costs, config.policy,
                    ticks, full[w].run.profile,
                    sim::nestedProbeCycles(config.costs));
                tomography::TimingModel model(
                    workload.entryProc(), lowered.procs[workload.entry],
                    config.costs, config.policy, ticks, means,
                    sim::nestedProbeCycles(config.costs));
                auto truth =
                    full[w].run.profile[workload.entry].branchProbabilities(
                        workload.entryProc());

                Cell out;
                tomography::StreamingEstimator streaming(model);
                streaming.observeAll(durations);
                if (!truth.empty()) {
                    out.stream =
                        meanAbsoluteError(streaming.theta(), truth);
                    auto batch = tomography::makeEstimator(
                                     tomography::EstimatorKind::Em, {})
                                     ->estimate(model, durations);
                    out.batch = meanAbsoluteError(batch.theta, truth);
                }
                return out;
            });
            double stream_mae = 0.0;
            double batch_mae = 0.0;
            for (const auto &c : cells) {
                stream_mae += c.stream;
                batch_mae += c.batch;
            }
            table.row(n, stream_mae / double(suite.size()),
                      batch_mae / double(suite.size()));
        }
        emit(table, "fig6f_streaming");
    }
    return 0;
}
