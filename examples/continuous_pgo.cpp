/**
 * @file
 * Closed-loop continuous PGO demo (src/pgo, docs/PGO.md): run a
 * workload through a regime schedule — the environment's input
 * distribution shifts mid-deployment — and watch the controller
 * detect the drift, checkpoint + compact the durable store, and
 * hot-swap a causally-gated re-placement into the live lane.
 *
 * Output: the per-window drift / mispredict / regret table, one line
 * per re-placement with before/after rates, and the cumulative
 * stale-layout regret against the every-window oracle. With
 * --expect-reoptimize N the demo exits nonzero unless the loop
 * re-placed at least N times and every swap both cut the live
 * mispredict rate and the per-window regret — the CI smoke
 * assertion.
 *
 *   continuous_pgo --workload alarm_threshold --windows 4 \
 *       --offset 150 --expect-reoptimize 2 --log-out log.txt
 */

#include <fstream>
#include <iomanip>
#include <iostream>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pgo/pgo.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "workloads/workload.hh"

using namespace ct;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "seed", "measure", "invocations",
                  "windows", "offset", "forgetting", "trigger", "clear",
                  "gate-fraction", "store", "log-out",
                  "expect-reoptimize"});
    auto workload =
        workloads::workloadByName(args.get("workload", "alarm_threshold"));

    // Same telemetry convention as the pipeline binaries: the env
    // vars switch the process-wide registries on, files written at
    // exit (the pgo.* family; see docs/OBSERVABILITY.md).
    const std::string trace_path = obs::traceOutPathFromEnv();
    const std::string metrics_path = obs::metricsOutPathFromEnv();
    if (!trace_path.empty())
        obs::tracer().setEnabled(true);
    if (!metrics_path.empty())
        obs::setMetricsEnabled(true);

    pgo::PgoConfig config;
    config.seed = uint64_t(args.getLong("seed", 7));
    config.measureInvocations = size_t(args.getLong("measure", 800));
    config.windowInvocations = size_t(args.getLong("invocations", 200));
    config.forgetting = args.getDouble("forgetting", 0.02);
    config.drift.trigger = args.getDouble("trigger", 0.20);
    config.drift.clear = args.getDouble("clear", 0.12);
    config.drift.hysteresisWindows = 2;
    config.drift.cooldownWindows = 1;
    config.gateFraction = args.getDouble("gate-fraction", 0.01);
    config.storeDir = args.get("store", "");

    // Three regimes, two shifts: the sensed channel's operating point
    // drops by offset, then swings to +offset. For the default alarm
    // workload (channel 0 ~ N(500, 70), thresholds 560/440) each
    // shift flips the alarm branch's dominant direction — exactly the
    // mid-deployment change a frozen layout cannot survive.
    const size_t windows = size_t(args.getLong("windows", 4));
    const double offset = args.getDouble("offset", 150.0);
    config.regimes = {
        pgo::Regime{.windows = windows},
        pgo::Regime{.windows = windows, .senseOffset = -offset},
        pgo::Regime{.windows = windows, .senseOffset = offset},
    };

    std::cout << "workload: " << workload.name << " — "
              << workload.description << "\n"
              << "schedule: 3 regimes x " << windows
              << " windows (sense offset 0 / -" << offset << " / +"
              << offset << "), " << config.windowInvocations
              << " invocations per window, forgetting "
              << config.forgetting << "\n\n";

    pgo::ContinuousPgo loop(workload, config);
    auto result = loop.run();

    TablePrinter table("per-window telemetry");
    table.setHeader({"w", "regime", "drift", "mispredict", "live cyc",
                     "oracle cyc", "regret", "cum regret", "event"});
    for (const auto &w : result.windowReports) {
        const char *event = w.swapped    ? "SWAP"
                            : w.triggered ? "trigger"
                                          : "";
        table.row(w.window, w.regime, w.driftStat, w.mispredictRate,
                  w.liveCycles, w.oracleCycles, w.regretCycles,
                  w.cumulativeRegretCycles, event);
    }
    table.print(std::cout);

    std::cout << "\nre-placements: " << result.swaps << " (triggers "
              << result.triggers << ", drift compactions "
              << result.compactions << ")\n";
    bool every_swap_improved = true;
    for (const auto &swap : result.swapEvents) {
        const bool better =
            swap.postMispredictRate < swap.preMispredictRate &&
            swap.postRegretCycles < swap.preRegretCycles;
        every_swap_improved = every_swap_improved && better;
        std::cout << "  w" << swap.window << " (regime " << swap.regime
                  << "): mispredict " << std::fixed
                  << std::setprecision(4) << swap.preMispredictRate
                  << " -> " << swap.postMispredictRate << ", regret "
                  << swap.preRegretCycles << " -> "
                  << swap.postRegretCycles << " cycles, "
                  << swap.gateSurvivors << " gated procs"
                  << (better ? "" : "  [no improvement]") << "\n";
    }
    std::cout << "cumulative stale-layout regret: "
              << result.cumulativeRegretCycles
              << " cycles vs the every-window oracle\n"
              << "layout digest: " << std::hex
              << result.initialLayoutDigest << " -> "
              << result.finalLayoutDigest << std::dec << "\n";

    if (args.has("log-out")) {
        std::ofstream out(args.get("log-out", ""));
        out << result.decisionLog;
        std::cout << "wrote decision log to "
                  << args.get("log-out", "") << "\n";
    }

    if (!trace_path.empty()) {
        obs::tracer().writeJson(trace_path);
        std::cout << "wrote span trace " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
        obs::metrics().writeJson(metrics_path);
        std::cout << "wrote metrics " << metrics_path << "\n";
    }

    // CI smoke contract: the schedule's shifts must be caught and the
    // swaps must pay for themselves.
    const long expect = args.getLong("expect-reoptimize", 0);
    if (expect > 0) {
        if (result.swaps < size_t(expect)) {
            std::cerr << "FAIL: expected at least " << expect
                      << " re-placements, got " << result.swaps << "\n";
            return 1;
        }
        if (!every_swap_improved) {
            std::cerr << "FAIL: a re-placement did not improve both the "
                         "mispredict rate and the window regret\n";
            return 1;
        }
    }
    return 0;
}
