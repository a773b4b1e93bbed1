/**
 * @file
 * The enumerate-then-extract path table, kept as a test-only reference.
 *
 * PathTable::build gets its table from one bounded walk that carries
 * every path's sums as it descends. This is the build it replaced:
 * enumerate every walk with its list of states, then derive each
 * path's decision counts and callee variance from those states, group
 * the paths by reward, and index the ticks path by path. The per-path
 * estimator references and the table property in
 * test_streaming_reference.cc read their paths from here.
 */

#ifndef CT_TESTS_PATH_REFERENCE_HH
#define CT_TESTS_PATH_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "markov/chain.hh"
#include "tomography/path_table.hh"

namespace ct::reference {

/** One enumerated walk. */
struct Path
{
    std::vector<size_t> states; //!< transient states in visit order
    double prob = 0.0;          //!< probability of exactly this walk
    double reward = 0.0;        //!< total reward of the walk
};

/** The enumerated walks, by descending probability. */
struct PathSet
{
    std::vector<Path> paths;

    /** Sum of the path probabilities, in path order. */
    double coveredMass() const;
};

/** Walks of @p chain from @p start to absorption, depth-first, pruned
 *  by @p options, then sorted by descending probability. */
PathSet enumeratePaths(const markov::AbsorbingChain &chain, size_t start,
                       const tomography::PathEnumOptions &options);

/** How often each parameter's branch is taken and fallen through along
 *  one path. */
struct PathFeatures
{
    std::vector<uint32_t> takenCount; //!< per parameter
    std::vector<uint32_t> fallCount;  //!< per parameter
};

/** Paths whose rewards lie within @p tolerance of the class's first
 *  member, by ascending reward. */
struct RewardClass
{
    double reward = 0.0;
    std::vector<size_t> members; //!< indices into PathSet::paths
    double prob = 0.0;
};

std::vector<RewardClass> groupByReward(const PathSet &set,
                                       double tolerance);

/** @p model's paths under @p enum_theta with each path's features and
 *  extra variance in ticks^2. */
struct ReferencePaths
{
    PathSet set;
    std::vector<PathFeatures> features;
    std::vector<double> extraVarTicks2;

    ReferencePaths(const tomography::TimingModel &model,
                   const tomography::EstimatorOptions &options,
                   const std::vector<double> &enum_theta);

    size_t pathCount() const { return set.paths.size(); }
};

/**
 * The table PathTable::build must return, built from ReferencePaths,
 * with every tick row listed from its definition. Empty (no paths)
 * where PathTable::build calls fatal().
 */
tomography::PathTable
referencePathTable(const tomography::TimingModel &model,
                   const tomography::EstimatorOptions &options,
                   const std::vector<double> &enum_theta);

} // namespace ct::reference

#endif // CT_TESTS_PATH_REFERENCE_HH
