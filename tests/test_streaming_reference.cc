/**
 * @file
 * StreamingEstimator against a per-path reference E-step, where every
 * latent path pays its own logProb, exp and NoiseKernel::prob and the
 * M-step sweeps every path once per parameter. The estimator must
 * reproduce the reference's state bit for bit after every observation,
 * on random CFGs with random noise and step settings, and from several
 * threads sharing one PathTable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/cfg_gen.hh"
#include "check/check.hh"
#include "markov/paths.hh"
#include "sim/machine.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

#include "prop_util.hh"

using namespace ct;
using namespace ct::tomography;

namespace {

/**
 * The per-path streaming E-step: same path enumeration, same formulas
 * and the same summation order as StreamingEstimator, with nothing
 * shared between paths.
 */
class ReferenceStreaming
{
  public:
    ReferenceStreaming(const TimingModel &model,
                       const EstimatorOptions &options, double step_exponent,
                       double forgetting)
        : noise_(model.cyclesPerTick(), options.jitterSigmaTicks),
          stepExponent_(step_exponent), forgetting_(forgetting),
          smoothing_(options.smoothing)
    {
        std::vector<double> prior(model.paramCount(), 0.5);
        auto chain = model.chainFor(prior);
        auto set = markov::enumeratePaths(chain, model.proc().entry(),
                                          options.pathEnum);
        const double tick = double(model.cyclesPerTick());
        for (const auto &path : set.paths) {
            features_.push_back(extractFeatures(model, path));
            rewards_.push_back(path.reward);
            extraVarTicks2_.push_back(
                model.pathVarianceCycles(path.states) / (tick * tick));
        }
        theta_.assign(model.paramCount(), 0.5);
        statTaken_.assign(model.paramCount(), 0.0);
        statFall_.assign(model.paramCount(), 0.0);
        resp_.assign(features_.size(), 0.0);
    }

    void observe(int64_t duration_ticks)
    {
        if (theta_.empty()) {
            ++count_;
            return;
        }
        const size_t paths = features_.size();
        double denom = 0.0;
        for (size_t p = 0; p < paths; ++p) {
            double prior = std::exp(features_[p].logProb(theta_));
            resp_[p] = prior * noise_.prob(duration_ticks, rewards_[p],
                                           extraVarTicks2_[p]);
            denom += resp_[p];
        }
        ++count_;
        if (denom <= 0.0) {
            ++outliers_;
            return;
        }
        double rho = forgetting_ > 0.0
                         ? forgetting_
                         : std::pow(double(count_), -stepExponent_);
        for (size_t b = 0; b < theta_.size(); ++b) {
            double taken = 0.0;
            double fall = 0.0;
            for (size_t p = 0; p < paths; ++p) {
                double w = resp_[p] / denom;
                taken += w * features_[p].takenCount[b];
                fall += w * features_[p].fallCount[b];
            }
            statTaken_[b] = (1.0 - rho) * statTaken_[b] + rho * taken;
            statFall_[b] = (1.0 - rho) * statFall_[b] + rho * fall;
            double total = statTaken_[b] + statFall_[b];
            double s = smoothing_ / double(count_);
            theta_[b] = (statTaken_[b] + s) / (total + 2.0 * s);
            theta_[b] = std::clamp(theta_[b], 1e-6, 1.0 - 1e-6);
        }
    }

    StreamingState snapshot() const
    {
        return {theta_, statTaken_, statFall_, count_, outliers_};
    }

    size_t pathCount() const { return features_.size(); }
    const std::vector<double> &rewards() const { return rewards_; }

  private:
    NoiseKernel noise_;
    double stepExponent_;
    double forgetting_;
    double smoothing_;
    std::vector<PathFeatures> features_;
    std::vector<double> rewards_;
    std::vector<double> extraVarTicks2_;
    std::vector<double> theta_;
    std::vector<double> statTaken_;
    std::vector<double> statFall_;
    std::vector<double> resp_;
    uint64_t count_ = 0;
    uint64_t outliers_ = 0;
};

/** "" when every field of @p a and @p b has the same bits, else the
 *  first field that differs. */
std::string
firstBitDifference(const StreamingState &a, const StreamingState &b)
{
    auto same = [](const std::vector<double> &x,
                   const std::vector<double> &y) {
        return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                          [](double u, double v) {
                              return std::bit_cast<uint64_t>(u) ==
                                     std::bit_cast<uint64_t>(v);
                          });
    };
    if (!same(a.theta, b.theta))
        return "theta";
    if (!same(a.statTaken, b.statTaken))
        return "statTaken";
    if (!same(a.statFall, b.statFall))
        return "statFall";
    if (a.count != b.count)
        return "count";
    if (a.outliers != b.outliers)
        return "outliers";
    return "";
}

/** One random case: a program, a noise and step setting, a stream. */
struct StreamCase
{
    uint64_t genSeed = 0;
    double loopProb = 0.0;
    uint64_t cyclesPerTick = 1;
    double jitter = 0.0;
    double stepExponent = 0.7;
    double forgetting = 0.0;
    double calleeMean = 0.0;
    double calleeVar = 0.0;
    uint64_t streamSeed = 0;
    size_t observations = 0;
};

StreamCase
genStreamCase(Rng &rng)
{
    StreamCase c;
    c.genSeed = rng.next();
    c.loopProb = rng.bernoulli(0.5) ? 0.3 : 0.0;
    c.cyclesPerTick = uint64_t(1) << rng.below(4);
    c.jitter = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.05, 1.5);
    c.stepExponent = rng.uniform(0.51, 1.0);
    c.forgetting = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.01, 0.3);
    c.calleeMean = rng.uniform(0.0, 120.0);
    c.calleeVar = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 900.0);
    c.streamSeed = rng.next();
    c.observations = size_t(rng.range(20, 150));
    return c;
}

std::string
showStreamCase(const StreamCase &c)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{genSeed=0x%llx loopProb=%.1f cyclesPerTick=%llu "
                  "jitter=%.17g stepExponent=%.17g forgetting=%.17g "
                  "calleeMean=%.17g calleeVar=%.17g streamSeed=0x%llx "
                  "observations=%zu}",
                  (unsigned long long)c.genSeed, c.loopProb,
                  (unsigned long long)c.cyclesPerTick, c.jitter,
                  c.stepExponent, c.forgetting, c.calleeMean, c.calleeVar,
                  (unsigned long long)c.streamSeed, c.observations);
    return buf;
}

std::optional<std::string>
checkStreamCase(const StreamCase &c)
{
    // A random CFG whose blocks call a leaf now and then, so folded
    // callee means and variances reach the path rewards and kernels.
    check::FuzzConfig config;
    config.loopProb = c.loopProb;
    Rng rng(c.genSeed);
    auto program = check::makeFuzzProgram(rng, config);
    ir::ProcedureBuilder leaf(*program.module, "leaf");
    leaf.nop();
    leaf.ret();
    const ir::ProcId callee = leaf.finish();
    for (auto &block : program.module->procedure(program.entry).blocks())
        if (rng.bernoulli(0.3))
            block.insts.insert(
                block.insts.begin(),
                ir::Inst{ir::Opcode::Call, 0, 0, 0, ir::Word(callee)});

    sim::SimConfig sim;
    auto lowered = sim::lowerModule(*program.module);
    TimingModel model(program.proc(), lowered.procs[program.entry],
                      sim.costs, sim.policy, c.cyclesPerTick,
                      {0.0, c.calleeMean}, sim::nestedProbeCycles(sim.costs),
                      {0.0, c.calleeVar});
    EstimatorOptions options;
    options.jitterSigmaTicks = c.jitter;

    ReferenceStreaming reference(model, options, c.stepExponent,
                                 c.forgetting);
    StreamingEstimator streaming(model, options, c.stepExponent,
                                 c.forgetting);
    if (streaming.pathCount() != reference.pathCount())
        return "path count " + std::to_string(streaming.pathCount()) +
               " != reference " + std::to_string(reference.pathCount());

    // Durations near a random path's reward, with out-of-range ones
    // (negative, or far beyond every path) mixed in.
    Rng stream(c.streamSeed);
    const auto &rewards = reference.rewards();
    for (size_t i = 0; i < c.observations; ++i) {
        int64_t ticks;
        if (stream.bernoulli(0.05)) {
            ticks = stream.bernoulli(0.5) ? -stream.range(1, 50)
                                          : 1'000'000 + stream.range(0, 9);
        } else {
            double reward = rewards[stream.below(rewards.size())];
            ticks = int64_t(reward / double(c.cyclesPerTick)) +
                    stream.range(-3, 3);
        }
        reference.observe(ticks);
        streaming.observe(ticks);
        auto diff = firstBitDifference(streaming.snapshot(),
                                       reference.snapshot());
        if (!diff.empty())
            return diff + " differs from the reference after observation " +
                   std::to_string(i) + " (" + std::to_string(ticks) +
                   " ticks)";
    }
    return std::nullopt;
}

} // namespace

TEST(StreamingReference, MatchesPerPathReferenceBitForBit)
{
    CT_EXPECT_PROP(check::forAll<StreamCase>(
        "StreamingReference.MatchesPerPathReferenceBitForBit",
        genStreamCase, checkStreamCase, nullptr, showStreamCase,
        {.iterations = 60}));
}

TEST(StreamingReference, ThreadsSharingOneTableMatchSerial)
{
    // Four threads, each with its own estimators over one shared crc16
    // table and one shared event_dispatch table (the sink's fleet
    // shape), interleaving the two so per-thread scratch is resized
    // between tables of different sizes. Each must end where the same
    // stream ends on one thread.
    struct Program
    {
        workloads::Workload workload;
        sim::LoweredModule lowered;
        std::unique_ptr<TimingModel> model;
        std::shared_ptr<const PathTable> table;
        std::vector<int64_t> durations;
    };
    sim::SimConfig sim;
    std::vector<Program> programs;
    for (const char *name : {"crc16", "event_dispatch"}) {
        Program p;
        p.workload = workloads::workloadByName(name);
        p.lowered = sim::lowerModule(*p.workload.module);
        std::vector<double> no_callees(p.workload.module->procedureCount(),
                                       0.0);
        p.model = std::make_unique<TimingModel>(
            p.workload.entryProc(), p.lowered.procs[p.workload.entry],
            sim.costs, sim.policy, sim.cyclesPerTick, no_callees,
            sim::nestedProbeCycles(sim.costs));
        p.table = PathTable::build(*p.model, {});
        auto inputs = p.workload.makeInputs(5);
        sim::Simulator simulator(*p.workload.module, p.lowered, sim,
                                 *inputs, 6);
        p.durations = simulator.run(p.workload.entry, 200)
                          .trace.durations(p.workload.entry);
        programs.push_back(std::move(p));
    }

    constexpr size_t kThreads = 4;
    auto drive = [&](size_t t) {
        EstimatorOptions options;
        options.jitterSigmaTicks = t % 2 ? 0.7 : 0.0;
        const double forgetting = t / 2 ? 0.05 : 0.0;
        std::vector<StreamingEstimator> estimators;
        for (const auto &p : programs)
            estimators.emplace_back(*p.model, p.table, options, 0.7,
                                    forgetting);
        for (size_t i = 0; i < 200; ++i)
            for (size_t e = 0; e < programs.size(); ++e) {
                const auto &durations = programs[e].durations;
                estimators[e].observe(durations[(i + t) % durations.size()]);
            }
        std::vector<StreamingState> states;
        for (const auto &estimator : estimators)
            states.push_back(estimator.snapshot());
        return states;
    };

    std::vector<std::vector<StreamingState>> serial;
    for (size_t t = 0; t < kThreads; ++t)
        serial.push_back(drive(t));

    std::vector<std::vector<StreamingState>> parallel(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] { parallel[t] = drive(t); });
    for (auto &thread : threads)
        thread.join();

    for (size_t t = 0; t < kThreads; ++t)
        for (size_t e = 0; e < programs.size(); ++e)
            EXPECT_EQ(firstBitDifference(parallel[t][e], serial[t][e]), "")
                << "thread " << t << ", " << programs[e].workload.name;
}
