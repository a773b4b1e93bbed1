/**
 * @file
 * The class-folded estimators against per-path references, where every
 * latent path pays its own log prior, exp and NoiseKernel::prob, and
 * the path table against the enumerate-then-extract build they read
 * their paths from (path_reference.hh):
 *
 *  - StreamingEstimator against a per-path streaming E-step whose
 *    M-step sweeps every path once per parameter. The estimator must
 *    reproduce the reference's state bit for bit after every
 *    observation, on random CFGs with random noise and step settings,
 *    and from several threads sharing one PathTable.
 *  - EmPathEstimator against the per-path batch EM, whose likelihood
 *    matrix has one column per path. Every EstimateResult field must
 *    match bit for bit on the same random CFGs.
 *  - PathTable::build's one walk against the reference table. Every
 *    field must match bit for bit on random CFGs and on every
 *    procedure of the paper programs, under random thetas and bounds
 *    tight enough to prune.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/cfg_gen.hh"
#include "check/check.hh"
#include "sim/machine.hh"
#include "tomography/em_estimator.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

#include "path_reference.hh"
#include "prop_util.hh"

using namespace ct;
using namespace ct::tomography;

namespace {

/** log P(path | theta) of a path's branch decisions, term by term. */
double
logPrior(const reference::PathFeatures &features,
         const std::vector<double> &theta)
{
    double lp = 0.0;
    for (size_t b = 0; b < theta.size(); ++b) {
        double p = std::clamp(theta[b], 1e-12, 1.0 - 1e-12);
        if (features.takenCount[b] > 0)
            lp += double(features.takenCount[b]) * std::log(p);
        if (features.fallCount[b] > 0)
            lp += double(features.fallCount[b]) * std::log1p(-p);
    }
    return lp;
}

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
          stepExponent_(step_exponent), forgetting_(forgetting)
    {
        reference::ReferencePaths paths(
            model, options, std::vector<double>(model.paramCount(), 0.5));
        features_ = std::move(paths.features);
        for (const auto &path : paths.set.paths)
            rewards_.push_back(path.reward);
        extraVarTicks2_ = std::move(paths.extraVarTicks2);
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
            double prior = std::exp(logPrior(features_[p], theta_));
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
            double s = kSmoothing / double(count_);
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
    std::vector<reference::PathFeatures> features_;
    std::vector<double> rewards_;
    std::vector<double> extraVarTicks2_;
    std::vector<double> theta_;
    std::vector<double> statTaken_;
    std::vector<double> statFall_;
    std::vector<double> resp_;
    uint64_t count_ = 0;
    uint64_t outliers_ = 0;
};

/**
 * The per-path batch EM: the same path enumeration, formulas and
 * summation order as EmPathEstimator, with per-path features and a
 * likelihood matrix of one column per path.
 */
struct ReferenceWorkspace
{
    reference::ReferencePaths paths;
    std::vector<int64_t> obsValues;
    std::vector<double> obsWeights;
    std::vector<double> kernel; //!< row-major, observations x paths

    ReferenceWorkspace(const TimingModel &model,
                       const std::vector<int64_t> &durations,
                       const EstimatorOptions &options,
                       const std::vector<double> &enum_theta)
        : paths(model, options, enum_theta)
    {
        std::map<int64_t, double> histogram;
        for (int64_t d : durations)
            histogram[d] += 1.0;
        for (const auto &[value, weight] : histogram) {
            obsValues.push_back(value);
            obsWeights.push_back(weight);
        }
        NoiseKernel noise(model.cyclesPerTick(), options.jitterSigmaTicks);
        for (int64_t value : obsValues)
            for (size_t p = 0; p < paths.pathCount(); ++p)
                kernel.push_back(noise.prob(value, paths.set.paths[p].reward,
                                            paths.extraVarTicks2[p]));
    }

    size_t pathCount() const { return paths.pathCount(); }
};

size_t
referenceRunEm(const ReferenceWorkspace &ws, std::vector<double> &theta,
               double &log_likelihood)
{
    const size_t paths = ws.pathCount();
    const size_t params = theta.size();
    std::vector<double> prior(paths, 0.0);
    size_t iter = 0;
    for (; iter < kMaxIterations; ++iter) {
        for (size_t p = 0; p < paths; ++p)
            prior[p] = std::exp(logPrior(ws.paths.features[p], theta));
        std::vector<double> path_resp(paths, 0.0);
        std::vector<double> acc_taken(params, 0.0);
        std::vector<double> acc_fall(params, 0.0);
        log_likelihood = 0.0;
        for (size_t o = 0; o < ws.obsValues.size(); ++o) {
            const double *krow = &ws.kernel[o * paths];
            double denom = 0.0;
            for (size_t p = 0; p < paths; ++p)
                denom += prior[p] * krow[p];
            if (denom <= 0.0) {
                log_likelihood += ws.obsWeights[o] * NoiseKernel::logFloor();
                continue;
            }
            log_likelihood += ws.obsWeights[o] * std::log(denom);
            double scale = ws.obsWeights[o] / denom;
            for (size_t p = 0; p < paths; ++p)
                path_resp[p] += prior[p] * krow[p] * scale;
        }
        for (size_t p = 0; p < paths; ++p) {
            if (path_resp[p] <= 0.0)
                continue;
            for (size_t b = 0; b < params; ++b) {
                acc_taken[b] +=
                    path_resp[p] * ws.paths.features[p].takenCount[b];
                acc_fall[b] +=
                    path_resp[p] * ws.paths.features[p].fallCount[b];
            }
        }
        double max_delta = 0.0;
        for (size_t b = 0; b < params; ++b) {
            double updated = (acc_taken[b] + kSmoothing) /
                             (acc_taken[b] + acc_fall[b] + 2.0 * kSmoothing);
            max_delta = std::max(max_delta, std::abs(updated - theta[b]));
            theta[b] = updated;
        }
        if (max_delta < kTolerance) {
            ++iter;
            break;
        }
    }
    return iter;
}

EstimateResult
referenceEm(const TimingModel &model, const std::vector<int64_t> &durations,
            const EstimatorOptions &options)
{
    EstimateResult result;
    result.theta.assign(model.paramCount(), 0.5);
    if (model.paramCount() == 0)
        return result;
    ReferenceWorkspace ws(model, durations, options, result.theta);
    result.iterations =
        referenceRunEm(ws, result.theta, result.logLikelihood);
    if (options.reenumerate) {
        std::vector<double> enum_theta = result.theta;
        for (double &p : enum_theta)
            p = std::clamp(p, 0.05, 0.95);
        ws = ReferenceWorkspace(model, durations, options, enum_theta);
        result.iterations +=
            referenceRunEm(ws, result.theta, result.logLikelihood);
    }
    result.pathCount = ws.pathCount();
    result.coveredPathMass = ws.paths.set.coveredMass();
    auto classes = reference::groupByReward(ws.paths.set, 1e-6);
    result.rewardClasses = classes.size();
    for (const auto &cls : classes) {
        bool mixed = false;
        for (size_t member : cls.members) {
            const auto &a = ws.paths.features[cls.members[0]];
            const auto &b = ws.paths.features[member];
            mixed = mixed || a.takenCount != b.takenCount ||
                    a.fallCount != b.fallCount;
        }
        if (mixed)
            for (size_t member : cls.members)
                result.aliasedMass +=
                    std::exp(logPrior(ws.paths.features[member],
                                      result.theta));
    }
    return result;
}

bool
sameBits(const std::vector<double> &x, const std::vector<double> &y)
{
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](double u, double v) {
                          return std::bit_cast<uint64_t>(u) ==
                                 std::bit_cast<uint64_t>(v);
                      });
}

bool
sameBits(double x, double y)
{
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

/** "" when every field of @p a and @p b has the same bits, else the
 *  first field that differs. */
std::string
firstBitDifference(const StreamingState &a, const StreamingState &b)
{
    if (!sameBits(a.theta, b.theta))
        return "theta";
    if (!sameBits(a.statTaken, b.statTaken))
        return "statTaken";
    if (!sameBits(a.statFall, b.statFall))
        return "statFall";
    if (a.count != b.count)
        return "count";
    if (a.outliers != b.outliers)
        return "outliers";
    return "";
}

/** Same, over every EstimateResult field. */
std::string
firstBitDifference(const EstimateResult &a, const EstimateResult &b)
{
    if (!sameBits(a.theta, b.theta))
        return "theta";
    if (a.iterations != b.iterations)
        return "iterations";
    if (!sameBits(a.logLikelihood, b.logLikelihood))
        return "logLikelihood";
    if (!sameBits(a.coveredPathMass, b.coveredPathMass))
        return "coveredPathMass";
    if (a.pathCount != b.pathCount)
        return "pathCount";
    if (a.rewardClasses != b.rewardClasses)
        return "rewardClasses";
    if (!sameBits(a.aliasedMass, b.aliasedMass))
        return "aliasedMass";
    return "";
}

/** The procedure shape every random case draws: a random CFG, its
 *  timer quantum and the moments of a leaf callee. */
struct ProcedureCase
{
    uint64_t genSeed = 0;
    double loopProb = 0.0;
    uint64_t cyclesPerTick = 1;
    double jitter = 0.0;
    double calleeMean = 0.0;
    double calleeVar = 0.0;
    double callProb = 0.3; //!< chance that a block calls the leaf
};

ProcedureCase
genProcedureCase(Rng &rng)
{
    ProcedureCase c;
    c.genSeed = rng.next();
    c.loopProb = rng.bernoulli(0.5) ? 0.3 : 0.0;
    c.cyclesPerTick = uint64_t(1) << rng.below(4);
    c.jitter = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.05, 1.5);
    return c;
}

std::string
showProcedureCase(const ProcedureCase &c)
{
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "genSeed=0x%llx loopProb=%.1f cyclesPerTick=%llu "
                  "jitter=%.17g calleeMean=%.17g calleeVar=%.17g "
                  "callProb=%.17g",
                  (unsigned long long)c.genSeed, c.loopProb,
                  (unsigned long long)c.cyclesPerTick, c.jitter,
                  c.calleeMean, c.calleeVar, c.callProb);
    return buf;
}

/**
 * A random CFG whose blocks call a leaf now and then, so folded callee
 * means and variances reach the path rewards and kernels, lowered and
 * modelled.
 */
struct RandomProcedure
{
    check::FuzzProgram program;
    sim::LoweredModule lowered;
    std::unique_ptr<TimingModel> model;

    explicit RandomProcedure(const ProcedureCase &c)
    {
        check::FuzzConfig config;
        config.loopProb = c.loopProb;
        Rng rng(c.genSeed);
        program = check::makeFuzzProgram(rng, config);
        ir::ProcedureBuilder leaf(*program.module, "leaf");
        leaf.nop();
        leaf.ret();
        const ir::ProcId callee = leaf.finish();
        for (auto &block : program.module->procedure(program.entry).blocks())
            if (rng.bernoulli(c.callProb))
                block.insts.insert(
                    block.insts.begin(),
                    ir::Inst{ir::Opcode::Call, 0, 0, 0, ir::Word(callee)});

        sim::SimConfig sim;
        lowered = sim::lowerModule(*program.module);
        model = std::make_unique<TimingModel>(
            program.proc(), lowered.procs[program.entry], sim.costs,
            sim.policy, c.cyclesPerTick,
            std::vector<double>{0.0, c.calleeMean},
            sim::nestedProbeCycles(sim.costs),
            std::vector<double>{0.0, c.calleeVar});
    }
};

/** A duration near one of @p rewards, or now and then one just outside
 *  @p table's tick index or far out of range (negative, or far beyond
 *  every path). */
int64_t
randomDuration(Rng &stream, const std::vector<double> &rewards,
               uint64_t cycles_per_tick, const PathTable &table)
{
    if (stream.bernoulli(0.05))
        return stream.bernoulli(0.5)
                   ? table.tickLo - 1
                   : table.tickLo + int64_t(table.tickCount);
    if (stream.bernoulli(0.05))
        return stream.bernoulli(0.5) ? -stream.range(1, 50)
                                     : 1'000'000 + stream.range(0, 9);
    double reward = rewards[stream.below(rewards.size())];
    return int64_t(reward / double(cycles_per_tick)) + stream.range(-3, 3);
}

/** One random streaming case: a procedure, a step setting, a stream. */
struct StreamCase
{
    ProcedureCase proc;
    double stepExponent = 0.7;
    double forgetting = 0.0;
    uint64_t streamSeed = 0;
    size_t observations = 0;
};

StreamCase
genStreamCase(Rng &rng)
{
    StreamCase c;
    c.proc = genProcedureCase(rng);
    c.stepExponent = rng.uniform(0.51, 1.0);
    c.forgetting = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.01, 0.3);
    c.proc.calleeMean = rng.uniform(0.0, 120.0);
    c.proc.calleeVar = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 900.0);
    c.streamSeed = rng.next();
    c.observations = size_t(rng.range(20, 150));
    return c;
}

std::string
showStreamCase(const StreamCase &c)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  " stepExponent=%.17g forgetting=%.17g streamSeed=0x%llx "
                  "observations=%zu}",
                  c.stepExponent, c.forgetting,
                  (unsigned long long)c.streamSeed, c.observations);
    return "{" + showProcedureCase(c.proc) + buf;
}

std::optional<std::string>
checkStreamCase(const StreamCase &c)
{
    RandomProcedure proc(c.proc);
    EstimatorOptions options;
    options.jitterSigmaTicks = c.proc.jitter;

    ReferenceStreaming reference(*proc.model, options, c.stepExponent,
                                 c.forgetting);
    StreamingEstimator streaming(*proc.model, options, c.stepExponent,
                                 c.forgetting);
    if (streaming.pathCount() != reference.pathCount())
        return "path count " + std::to_string(streaming.pathCount()) +
               " != reference " + std::to_string(reference.pathCount());

    Rng stream(c.streamSeed);
    for (size_t i = 0; i < c.observations; ++i) {
        int64_t ticks = randomDuration(stream, reference.rewards(),
                                       c.proc.cyclesPerTick,
                                       *streaming.table());
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

/** One random batch case: a procedure, a trace, phase 2 on or off. */
struct BatchCase
{
    ProcedureCase proc;
    bool reenumerate = true;
    uint64_t streamSeed = 0;
    size_t observations = 0;
};

BatchCase
genBatchCase(Rng &rng)
{
    BatchCase c;
    c.proc = genProcedureCase(rng);
    c.proc.calleeMean = rng.uniform(0.0, 120.0);
    c.proc.calleeVar = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 900.0);
    c.reenumerate = rng.bernoulli(0.7);
    c.streamSeed = rng.next();
    c.observations = size_t(rng.range(1, 400));
    return c;
}

std::string
showBatchCase(const BatchCase &c)
{
    char buf[120];
    std::snprintf(buf, sizeof buf,
                  " reenumerate=%d streamSeed=0x%llx observations=%zu}",
                  int(c.reenumerate), (unsigned long long)c.streamSeed,
                  c.observations);
    return "{" + showProcedureCase(c.proc) + buf;
}

std::optional<std::string>
checkBatchCase(const BatchCase &c)
{
    RandomProcedure proc(c.proc);
    EstimatorOptions options;
    options.jitterSigmaTicks = c.proc.jitter;
    options.reenumerate = c.reenumerate;

    // Durations near the rewards of the agnostic path set.
    std::vector<double> rewards;
    std::vector<double> agnostic(proc.model->paramCount(), 0.5);
    for (const auto &path :
         reference::enumeratePaths(proc.model->chainFor(agnostic),
                                   proc.program.proc().entry(),
                                   options.pathEnum)
             .paths)
        rewards.push_back(path.reward);
    auto table = PathTable::build(*proc.model, options, agnostic);
    Rng stream(c.streamSeed);
    std::vector<int64_t> durations;
    for (size_t i = 0; i < c.observations; ++i)
        durations.push_back(
            randomDuration(stream, rewards, c.proc.cyclesPerTick, *table));

    auto expected = referenceEm(*proc.model, durations, options);
    auto actual = EmPathEstimator(options).estimate(*proc.model, durations);
    auto diff = firstBitDifference(actual, expected);
    if (!diff.empty())
        return diff + " differs from the per-path reference (" +
               std::to_string(expected.pathCount) + " paths)";
    return std::nullopt;
}

ProcedureCase
genIndexCase(Rng &rng)
{
    ProcedureCase c = genProcedureCase(rng);
    c.calleeMean = rng.uniform(0.0, 120.0);
    c.calleeVar = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 900.0);
    return c;
}

/** The distinct ids of @p ids, in order of first appearance. */
std::vector<uint32_t>
distinct(const std::vector<uint32_t> &ids)
{
    std::vector<uint32_t> out;
    for (uint32_t id : ids)
        if (std::find(out.begin(), out.end(), id) == out.end())
            out.push_back(id);
    return out;
}

/**
 * The agnostic table's tick index against the paths enumerated here,
 * each with its own reward, variance and NoiseKernel::support, over the
 * index and three ticks on each side of it.
 */
std::optional<std::string>
checkIndexCase(const ProcedureCase &c)
{
    RandomProcedure proc(c);
    EstimatorOptions options;
    options.jitterSigmaTicks = c.jitter;
    std::vector<double> agnostic(proc.model->paramCount(), 0.5);
    auto table = PathTable::build(*proc.model, options, agnostic);
    reference::ReferencePaths ref(*proc.model, options, agnostic);
    if (ref.pathCount() != table->pathCount())
        return "path count " + std::to_string(table->pathCount()) +
               " != enumerated " + std::to_string(ref.pathCount());

    const NoiseKernel noise(c.cyclesPerTick, c.jitter);
    std::vector<double> rewards;
    const auto &vars = ref.extraVarTicks2;
    std::vector<std::pair<int64_t, int64_t>> support;
    for (size_t p = 0; p < ref.pathCount(); ++p) {
        rewards.push_back(ref.set.paths[p].reward);
        support.push_back(noise.support(rewards.back(), vars[p]));
    }

    const int64_t end = table->tickLo + int64_t(table->tickCount);
    for (int64_t t = table->tickLo - 3; t < end + 3; ++t) {
        const auto row = table->row(t);
        const std::string at = " at tick " + std::to_string(t);
        std::vector<uint32_t> paths, decisions, kernels;
        for (uint32_t p = 0; p < ref.pathCount(); ++p) {
            bool in_support = support[p].first <= t && t <= support[p].second;
            if (in_support) {
                paths.push_back(p);
                decisions.push_back(table->paths[p].decisions);
                kernels.push_back(table->paths[p].kernel);
            } else if (noise.prob(t, rewards[p], vars[p]) != 0.0) {
                return "path " + std::to_string(p) +
                       " has a nonzero kernel outside its support" + at;
            }
        }
        if (!std::ranges::equal(row.paths, paths))
            return "row paths differ from the supports" + at;
        if (!std::ranges::equal(row.decisions, distinct(decisions)))
            return "row decision classes differ" + at;
        if (!std::ranges::equal(row.kernels, distinct(kernels)))
            return "row kernel classes differ" + at;
    }
    return std::nullopt;
}

/** Same, over every PathTable field. */
std::string
firstBitDifference(const PathTable &a, const PathTable &b)
{
    auto same_paths = [](const auto &x, const auto &y) {
        return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                          [](const PathTable::Path &u,
                             const PathTable::Path &v) {
                              return u.decisions == v.decisions &&
                                     u.kernel == v.kernel;
                          });
    };
    auto same_classes = [](const auto &x, const auto &y) {
        return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                          [](const PathTable::RewardClass &u,
                             const PathTable::RewardClass &v) {
                              return sameBits(u.reward, v.reward) &&
                                     sameBits(u.prob, v.prob) &&
                                     u.members == v.members &&
                                     u.aliased == v.aliased;
                          });
    };
    auto same_rows = [](const PathTable::Rows &x, const PathTable::Rows &y) {
        return x.start == y.start && x.ids == y.ids;
    };
    if (!same_paths(a.paths, b.paths))
        return "paths";
    if (!sameBits(a.probs, b.probs))
        return "probs";
    if (!sameBits(a.coveredMass, b.coveredMass))
        return "coveredMass";
    if (!sameBits(a.decisionCounts, b.decisionCounts))
        return "decisionCounts";
    if (a.decisionClasses != b.decisionClasses)
        return "decisionClasses";
    if (!sameBits(a.rewards, b.rewards))
        return "rewards";
    if (!sameBits(a.extraVarTicks2, b.extraVarTicks2))
        return "extraVarTicks2";
    if (!same_classes(a.rewardClasses, b.rewardClasses))
        return "rewardClasses";
    if (a.paramCount != b.paramCount)
        return "paramCount";
    if (a.cyclesPerTick != b.cyclesPerTick ||
        !sameBits(a.jitterSigmaTicks, b.jitterSigmaTicks))
        return "tick kernel";
    if (a.tickLo != b.tickLo || a.tickCount != b.tickCount)
        return "tick range";
    if (!same_rows(a.tickPaths, b.tickPaths))
        return "tickPaths";
    if (!same_rows(a.tickDecisions, b.tickDecisions))
        return "tickDecisions";
    if (!same_rows(a.tickKernels, b.tickKernels))
        return "tickKernels";
    return "";
}

/** A procedure of a paper program, modelled bottom-up with each
 *  callee's mean and variance under theta 0.3, which leaves fractional
 *  bits in the means of callees that branch. */
struct ProgramProcedure
{
    workloads::Workload workload;
    sim::LoweredModule lowered;
    std::unique_ptr<TimingModel> model;

    ProgramProcedure(const std::string &name, ir::ProcId id,
                     uint64_t cycles_per_tick)
        : workload(workloads::workloadByName(name)),
          lowered(sim::lowerModule(*workload.module))
    {
        const ir::Module &module = *workload.module;
        sim::SimConfig sim;
        std::vector<double> means(module.procedureCount(), 0.0);
        std::vector<double> vars(module.procedureCount(), 0.0);
        for (ir::ProcId p : bottomUpOrder(module)) {
            model = std::make_unique<TimingModel>(
                module.procedure(p), lowered.procs[p], sim.costs,
                sim.policy, cycles_per_tick, means,
                sim::nestedProbeCycles(sim.costs), vars);
            if (p == id)
                return;
            std::vector<double> theta(model->paramCount(), 0.3);
            means[p] = model->meanCycles(theta);
            vars[p] = model->varianceCycles(theta);
        }
    }
};

/**
 * One table build: a random CFG (ProcedureCase) or procedure @p procId
 * of a paper program at the case's tick and jitter, an enumeration
 * theta, and the default path bounds or one bound tight enough to
 * prune.
 */
struct TableCase
{
    ProcedureCase proc;
    std::string workload; //!< "" for the random CFG
    ir::ProcId procId = 0;
    uint64_t thetaSeed = 0; //!< 0: the agnostic theta
    PathEnumOptions bounds;
};

TableCase
genTableCase(Rng &rng)
{
    // Rewards and sums differ in their last bits only where an edge's
    // extra cycles carry a sum across a power of two, so most cases
    // loop, call the leaf often and give it a mean with fractional
    // bits across four orders of magnitude.
    TableCase c;
    c.proc = genIndexCase(rng);
    c.proc.loopProb = rng.bernoulli(0.75) ? 0.3 : 0.0;
    c.proc.callProb = rng.uniform(0.3, 1.0);
    c.proc.calleeMean =
        std::exp(rng.uniform(std::log(0.01), std::log(120.0)));
    if (rng.bernoulli(0.25)) {
        auto names = workloads::workloadNames();
        c.workload = names[rng.below(names.size())];
        c.procId = ir::ProcId(rng.below(
            workloads::workloadByName(c.workload).module->procedureCount()));
    }
    c.thetaSeed = rng.bernoulli(0.3) ? 0 : rng.next() | 1;
    switch (rng.below(6)) {
    case 0:
        c.bounds.maxPaths = size_t(rng.range(1, 200));
        break;
    case 1:
        c.bounds.maxVisitsPerState = uint32_t(rng.range(1, 6));
        break;
    case 2:
        c.bounds.maxLength = size_t(rng.range(2, 40));
        break;
    case 3:
        c.bounds.minProb = std::pow(10.0, -rng.uniform(1.0, 9.0));
        break;
    default: // the default bounds
        break;
    }
    return c;
}

std::string
showTableCase(const TableCase &c)
{
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  " workload=%s procId=%u thetaSeed=0x%llx minProb=%.17g "
                  "maxVisitsPerState=%u maxPaths=%zu maxLength=%zu}",
                  c.workload.c_str(), unsigned(c.procId),
                  (unsigned long long)c.thetaSeed, c.bounds.minProb,
                  unsigned(c.bounds.maxVisitsPerState), c.bounds.maxPaths,
                  c.bounds.maxLength);
    return "{" + showProcedureCase(c.proc) + buf;
}

/** The enumeration theta of @p seed: 0.5 everywhere for seed 0, else
 *  random, now and then exactly 0 or 1. */
std::vector<double>
enumTheta(uint64_t seed, size_t params)
{
    std::vector<double> theta(params, 0.5);
    if (seed == 0)
        return theta;
    Rng rng(seed);
    for (double &p : theta)
        p = rng.bernoulli(0.1) ? double(rng.below(2))
                               : rng.uniform(0.01, 0.99);
    return theta;
}

std::optional<std::string>
checkTableCase(const TableCase &c)
{
    std::unique_ptr<RandomProcedure> random;
    std::unique_ptr<ProgramProcedure> program;
    const TimingModel *model;
    if (c.workload.empty()) {
        random = std::make_unique<RandomProcedure>(c.proc);
        model = random->model.get();
    } else {
        program = std::make_unique<ProgramProcedure>(c.workload, c.procId,
                                                     c.proc.cyclesPerTick);
        model = program->model.get();
    }
    EstimatorOptions options;
    options.pathEnum = c.bounds;
    options.jitterSigmaTicks = c.proc.jitter;
    const auto theta = enumTheta(c.thetaSeed, model->paramCount());

    auto expected = reference::referencePathTable(*model, options, theta);
    if (expected.pathCount() == 0)
        return check::skipCase(); // PathTable::build calls fatal()
    auto actual = PathTable::build(*model, options, theta);
    auto diff = firstBitDifference(*actual, expected);
    if (!diff.empty())
        return diff + " differs from the enumerate-then-extract table (" +
               std::to_string(expected.pathCount()) + " paths)";
    return std::nullopt;
}

} // namespace

TEST(StreamingReference, TickRowsHoldEveryPathWithNonzeroKernel)
{
    CT_EXPECT_PROP(check::forAll<ProcedureCase>(
        "StreamingReference.TickRowsHoldEveryPathWithNonzeroKernel",
        genIndexCase, checkIndexCase, nullptr, showProcedureCase,
        {.iterations = 60}));
}

TEST(StreamingReference, MatchesPerPathReferenceBitForBit)
{
    CT_EXPECT_PROP(check::forAll<StreamCase>(
        "StreamingReference.MatchesPerPathReferenceBitForBit",
        genStreamCase, checkStreamCase, nullptr, showStreamCase,
        {.iterations = 60}));
}

TEST(BatchReference, EmMatchesPerPathReferenceBitForBit)
{
    CT_EXPECT_PROP(check::forAll<BatchCase>(
        "BatchReference.EmMatchesPerPathReferenceBitForBit", genBatchCase,
        checkBatchCase, nullptr, showBatchCase, {.iterations = 60}));
}

TEST(PathTableReference, WalkMatchesEnumerateThenExtractBitForBit)
{
    // Every procedure of every paper program, under the agnostic theta
    // at one cycle per tick and under a random one at eight with
    // jitter, then random cases.
    for (const auto &name : workloads::workloadNames()) {
        const size_t procs =
            workloads::workloadByName(name).module->procedureCount();
        for (ir::ProcId id = 0; id < procs; ++id) {
            for (bool agnostic : {true, false}) {
                TableCase c;
                c.workload = name;
                c.procId = id;
                c.proc.cyclesPerTick = agnostic ? 1 : 8;
                c.proc.jitter = agnostic ? 0.0 : 0.7;
                c.thetaSeed = agnostic ? 0 : 2 * uint64_t(id) + 1;
                auto failure = checkTableCase(c);
                EXPECT_EQ(failure, std::nullopt) << showTableCase(c);
            }
        }
    }
    CT_EXPECT_PROP(check::forAll<TableCase>(
        "PathTableReference.WalkMatchesEnumerateThenExtractBitForBit",
        genTableCase, checkTableCase, nullptr, showTableCase,
        {.iterations = 200}));
}

TEST(StreamingReference, ThreadsSharingOneTableMatchSerial)
{
    // Four threads, each with its own estimators over one shared crc16
    // table and one shared event_dispatch table (the sink's fleet
    // shape), interleaving the two so per-thread scratch is resized
    // between tables of different sizes. A table's tick index depends
    // on the jitter, so each program has one table per jitter, shared
    // by the two threads that use it. Each must end where the same
    // stream ends on one thread.
    constexpr double kJitters[2] = {0.0, 0.7};
    struct Program
    {
        workloads::Workload workload;
        sim::LoweredModule lowered;
        std::unique_ptr<TimingModel> model;
        std::shared_ptr<const PathTable> tables[2]; //!< per kJitters
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
        for (size_t j = 0; j < 2; ++j) {
            EstimatorOptions options;
            options.jitterSigmaTicks = kJitters[j];
            p.tables[j] = PathTable::build(
                *p.model, options,
                std::vector<double>(p.model->paramCount(), 0.5));
        }
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
        options.jitterSigmaTicks = kJitters[t % 2];
        const double forgetting = t / 2 ? 0.05 : 0.0;
        std::vector<StreamingEstimator> estimators;
        for (const auto &p : programs)
            estimators.emplace_back(*p.model, p.tables[t % 2], options, 0.7,
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
