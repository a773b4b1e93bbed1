/**
 * @file
 * The latent path table: the one representation of the bounded path set
 * that the path-based estimators (Linear, Em, Streaming) and the fit
 * check range over.
 *
 * Paths are grouped so per-path work happens once per class of paths:
 * a path's prior depends only on its branch-decision counts, and its
 * measurement kernel only on its (reward, extra variance) pair.
 * crc16's 1,022 paths at 8 cycles per tick carry 54 classes of each.
 * Sums over paths run in enumeration order and read the class values,
 * so they add the same doubles in the same order as a per-path loop.
 */

#ifndef CT_TOMOGRAPHY_PATH_TABLE_HH
#define CT_TOMOGRAPHY_PATH_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "tomography/estimator.hh"

namespace ct::tomography {

/**
 * A pure function of (model, options.pathEnum, enumeration theta),
 * immutable after build(), so every streaming estimator of the same
 * procedure — on any thread — shares one table: at fleet scale (one
 * estimator per (mote, procedure), 10^5..10^6 motes) this turns the
 * per-estimator construction cost from a full path enumeration into one
 * handle, and the per-estimator footprint into the mutable state alone.
 */
struct PathTable
{
    /** One latent path's two class ids. */
    struct Path
    {
        uint32_t decisions; //!< decision-count class
        uint32_t kernel;    //!< kernel class
    };

    /**
     * Paths whose rewards lie within 1e-6 cycles of the class's first
     * member: boundary timing alone cannot tell them apart.
     */
    struct RewardClass
    {
        double reward = 0.0; //!< the first member's reward, in cycles
        double prob = 0.0;   //!< the members' enumeration probability
        std::vector<size_t> members; //!< path indices, by ascending reward
        /** Members differ in some branch decision: the class's mass is
         *  unidentifiable from timing. */
        bool aliased = false;
    };

    /** Latent paths in enumeration order, the order every sum over
     *  paths runs in. */
    std::vector<Path> paths;
    /** Each path's probability under the enumeration theta. */
    std::vector<double> probs;
    /** Sum of probs: the enumeration mass the table covers. */
    double coveredMass = 0.0;
    /**
     * Decision-count classes, one row of 2 * paramCount whole numbers
     * per class: how often its paths take parameter b's branch (column
     * b) and fall through it (column paramCount + b).
     */
    std::vector<double> decisionCounts;
    size_t decisionClasses = 0;
    /** Kernel classes: distinct (reward in cycles, extra variance in
     *  ticks^2) pairs. */
    std::vector<double> rewards;
    std::vector<double> extraVarTicks2;
    /** Reward classes, by ascending reward. */
    std::vector<RewardClass> rewardClasses;
    size_t paramCount = 0;

    size_t pathCount() const { return paths.size(); }
    size_t kernelClasses() const { return rewards.size(); }

    /**
     * Every decision class's prior under @p theta, into @p prior (resized
     * here, so a hot caller can reuse it): prior[c] = exp(sum_b
     * taken_cb log theta_b + fall_cb log(1 - theta_b)), with theta
     * clamped to [1e-12, 1 - 1e-12] and zero counts skipped.
     */
    void decisionPriors(const std::vector<double> &theta,
                        std::vector<double> &prior) const;

    /**
     * Enumerate @p model's paths under @p enum_theta, bounded by
     * options.pathEnum; fatal() when no path fits the bounds.
     */
    static std::shared_ptr<const PathTable>
    build(const TimingModel &model, const EstimatorOptions &options,
          const std::vector<double> &enum_theta);
};

/** Distinct measured durations and how often each occurs. */
struct DurationHistogram
{
    std::vector<int64_t> values; //!< distinct durations, ticks, ascending
    std::vector<double> weights; //!< occurrences of each value
    double total = 0.0;          //!< sum of weights

    /** @p durations must not be empty. */
    explicit DurationHistogram(const std::vector<int64_t> &durations);

    size_t size() const { return values.size(); }
};

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_PATH_TABLE_HH
