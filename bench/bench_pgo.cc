/**
 * @file
 * E17 — closed-loop continuous PGO: cumulative stale-layout regret as
 * a function of the drift trigger threshold and the tracking bank's
 * forgetting factor (docs/PGO.md, EXPERIMENTS.md E17).
 *
 * One row per (trigger, forgetting) cell on a three-regime schedule
 * (neutral / +offset / -offset): triggers, swaps, final-window
 * mispredict rate, and the cumulative live-minus-oracle regret. The
 * expected shape: a too-high trigger never fires and pays the full
 * stale-layout regret; a reasonable band catches both shifts and
 * flattens the regret curve; shorter forgetting windows (larger
 * factors) react faster but fire on noise when pushed too far.
 *
 *   results/BENCH_pgo.{csv,json} — uploaded as the perf artifact;
 *   decisions are deterministic per cell, wall-clock is not.
 *
 *   bench_pgo --workload alarm_threshold --windows 4
 */

#include "common.hh"

#include "pgo/pgo.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace ct;
using namespace ct::bench;

namespace {

std::vector<double>
parseDoubles(const std::string &text)
{
    std::vector<double> out;
    for (const auto &part : split(text, ','))
        out.push_back(std::stod(part));
    CT_ASSERT(!out.empty(), "empty sweep list");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "seed", "measure", "invocations",
                  "windows", "offset", "triggers", "forgettings"});
    auto workload =
        workloads::workloadByName(args.get("workload", "alarm_threshold"));
    const auto triggers =
        parseDoubles(args.get("triggers", "0.04,0.08,0.16,0.40"));
    const auto forgettings =
        parseDoubles(args.get("forgettings", "0.02,0.05,0.15"));
    const size_t windows = size_t(args.getLong("windows", 4));
    const double offset = args.getDouble("offset", 150.0);

    TablePrinter table("E17 — regret vs trigger threshold x forgetting "
                       "(" + workload.name + ")");
    table.setHeader({"trigger", "forgetting", "triggers", "swaps",
                     "final mr", "cum regret", "regret/window"});

    for (double trigger : triggers) {
        for (double forgetting : forgettings) {
            pgo::PgoConfig config;
            config.seed = uint64_t(args.getLong("seed", 7));
            config.measureInvocations =
                size_t(args.getLong("measure", 800));
            config.windowInvocations =
                size_t(args.getLong("invocations", 200));
            config.forgetting = forgetting;
            config.drift.trigger = trigger;
            config.drift.clear = trigger / 2.0;
            config.drift.hysteresisWindows = 2;
            config.drift.cooldownWindows = 1;
            config.regimes = {
                pgo::Regime{.windows = windows},
                pgo::Regime{.windows = windows, .senseOffset = -offset},
                pgo::Regime{.windows = windows, .senseOffset = offset},
            };
            pgo::ContinuousPgo loop(workload, config);
            auto result = loop.run();
            table.row(trigger, forgetting, result.triggers, result.swaps,
                      result.finalMispredictRate,
                      result.cumulativeRegretCycles,
                      double(result.cumulativeRegretCycles) /
                          double(result.windows));
        }
    }

    emit(table, "BENCH_pgo", /*json=*/true);
    return 0;
}
