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
 *
 * A tick index then narrows each sum to the paths a measured duration
 * can come from: NoiseKernel::prob is exactly +0.0 outside
 * NoiseKernel::support, so every other path adds prior * 0 = +0.0 to a
 * sum that starts at +0.0, and leaving it out changes no bit.
 */

#ifndef CT_TOMOGRAPHY_PATH_TABLE_HH
#define CT_TOMOGRAPHY_PATH_TABLE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "tomography/estimator.hh"

namespace ct::tomography {

/**
 * A pure function of (model, options.pathEnum, options.jitterSigmaTicks,
 * enumeration theta), immutable after build(), so every streaming
 * estimator of the same procedure — on any thread — shares one table:
 * at fleet scale (one estimator per (mote, procedure), 10^5..10^6
 * motes) this turns the per-estimator construction cost from a full
 * path enumeration into one handle, and the per-estimator footprint
 * into the mutable state alone.
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

    /** Rows of ids in one flat array: row r is ids[start[r],
     *  start[r + 1]). */
    struct Rows
    {
        std::vector<uint32_t> start;
        std::vector<uint32_t> ids;

        std::span<const uint32_t> operator[](size_t r) const
        {
            return {ids.data() + start[r], ids.data() + start[r + 1]};
        }
    };

    /** What a measured tick value can come from. */
    struct TickRow
    {
        std::span<const uint32_t> paths;     //!< ascending path indices
        std::span<const uint32_t> decisions; //!< their decision classes
        std::span<const uint32_t> kernels;   //!< their kernel classes
    };

    /// @name Tick index
    /// The NoiseKernel(cyclesPerTick, jitterSigmaTicks) every estimator
    /// of these options uses. Row t - tickLo lists, in path order, the
    /// paths whose kernel class's NoiseKernel::support contains tick t,
    /// and the distinct decision and kernel classes among them, in
    /// order of first appearance. Any other path's kernel at t is
    /// exactly +0.0.
    /// @{
    uint64_t cyclesPerTick = 1;
    double jitterSigmaTicks = 0.0;
    int64_t tickLo = 0;   //!< first indexed tick
    size_t tickCount = 0; //!< rows: ticks [tickLo, tickLo + tickCount)
    Rows tickPaths;
    Rows tickDecisions;
    Rows tickKernels;
    /// @}

    size_t pathCount() const { return paths.size(); }
    size_t kernelClasses() const { return rewards.size(); }
    /** (tick, path) pairs in the index. */
    size_t indexEntries() const { return tickPaths.ids.size(); }

    /** Tick @p ticks's row; empty outside the index. */
    TickRow row(int64_t ticks) const;

    /**
     * Decision-class priors under @p theta, into @p prior (resized to
     * decisionClasses here, so a hot caller can reuse it): prior[c] =
     * exp(sum_b taken_cb log theta_b + fall_cb log(1 - theta_b)), with
     * theta clamped to [1e-12, 1 - 1e-12] and zero counts skipped.
     * Every class, or only @p classes: the other entries keep what they
     * held.
     */
    void decisionPriors(
        const std::vector<double> &theta, std::vector<double> &prior,
        std::optional<std::span<const uint32_t>> classes = {}) const;

    /**
     * Enumerate @p model's paths under @p enum_theta, bounded by
     * options.pathEnum, and index them by tick under
     * options.jitterSigmaTicks; fatal() when no path fits the bounds.
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
