/**
 * @file
 * Differential and metamorphic oracles over the real Code Tomography
 * stack. Each oracle runs an end-to-end scenario and judges one
 * cross-layer invariant, returning std::nullopt on pass, skipCase()
 * when the scenario falls outside the invariant's premise (e.g. an
 * unidentifiable CFG), or a failure description.
 *
 * These are the reusable cores of the tests/prop_*.cc suites; keeping
 * them in the library (rather than in each test file) lets future
 * subsystems — sharded pipelines, new estimator backends — reuse the
 * exact same correctness bar.
 *
 * The invariants:
 *  - **round-trip**: simulate with known branch probabilities ->
 *    estimate from boundary timing alone -> every branch the
 *    identifiability diagnostics call visible must be recovered within
 *    tolerance (the paper's core claim, PAPER.md);
 *  - **cross-estimator**: EM and moment matching agree with the truth
 *    and each other on identifiable, moment-determined workloads;
 *  - **transport**: a lossy channel plus ARQ that completes must be
 *    *indistinguishable* from a lossless link, all the way into the
 *    streaming estimator's state;
 *  - **parallelism**: jobs=1 and jobs=N are bitwise-identical on
 *    pipeline and fleet outputs (the determinism contract of
 *    exec/thread_pool.hh);
 *  - **causal**: the analytic what-if deltas of ct::causal match
 *    re-simulating a genuinely zero-penalty layout on the real core
 *    (the model grades its own counterfactuals, docs/CAUSAL.md).
 */

#ifndef CT_CHECK_ORACLES_HH
#define CT_CHECK_ORACLES_HH

#include <optional>
#include <string>

#include "check/cfg_gen.hh"
#include "check/check.hh"
#include "check/store_scenario.hh"
#include "net/channel.hh"
#include "tomography/estimator.hh"
#include "trace/timing_trace.hh"

namespace ct::check {

/// @name Estimator round-trip (simulate -> estimate -> compare)
/// @{
struct RoundTripConfig
{
    tomography::EstimatorKind kind = tomography::EstimatorKind::Em;
    /** Allowed |estimated - true| on identifiable branches. */
    double tolerance = 0.08;
    /** Identifiability gates (see TimingModel::branchDiagnostics). */
    double minSeparationTicks = 1.0;
    double minVisitRate = 0.2;
    double maxAliasedMass = 0.02;
};

/**
 * Simulate @p scenario with ground-truth branch probabilities, then
 * recover them from boundary timing alone and compare within the
 * identifiability bounds. Skips scenarios with no judgeable branch.
 */
std::optional<std::string>
estimatorRoundTripOracle(const CfgScenario &scenario,
                         const RoundTripConfig &config = {});

/**
 * EM and moment matching on the same identifiable, moment-determined
 * (<= 2 branch parameters) scenario: both must land near the truth and
 * near each other.
 */
std::optional<std::string> emVsMomentOracle(const CfgScenario &scenario);
/// @}

/// @name Codec round-trips
/// @{
/** encodeTrace -> decodeTrace must be the identity on honest traces. */
std::optional<std::string>
wireRoundTripOracle(const trace::TimingTrace &trace);

/**
 * packetize -> serialize -> parse -> decode payloads must reproduce
 * the trace exactly, and every payload must decode independently.
 */
std::optional<std::string>
packetRoundTripOracle(const trace::TimingTrace &trace, uint16_t mote,
                      size_t mtu);
/// @}

/// @name Transport equivalence
/// @{
struct ArqScenario
{
    uint64_t traceSeed = 0;
    uint64_t channelSeed = 0;
    size_t records = 60;
    size_t mtu = 40;
    net::ChannelConfig channel;
};

/**
 * Ship a trace through a lossy channel under selective-repeat ARQ with
 * a generous retry budget; when the transfer completes, the sink's
 * reassembled trace and a streaming estimator fed from it must equal
 * the lossless path bitwise. Skips the (rare) incomplete transfers.
 */
std::optional<std::string>
arqLosslessEquivalenceOracle(const ArqScenario &scenario);

std::vector<ArqScenario> shrinkArqScenario(const ArqScenario &s);
std::string showArqScenario(const ArqScenario &s);
/// @}

/// @name Durable-store crash recovery
/// @{
/**
 * Persist a simulated campaign into a throwaway store directory,
 * inject the scenario's crash (torn byte stream, flipped WAL byte, or
 * damaged checkpoint), reopen, and require the recovered estimator
 * bank to equal — bitwise — a from-scratch replay of the durable
 * record prefix. The surviving prefix is predicted by an independent
 * model of the on-disk framing (varint sizes + fixed overheads), so
 * the store cannot grade its own homework. Also checks nextOrdinal
 * continuity and that fsckStore stays consistent with recovery.
 */
std::optional<std::string>
storeCrashRecoveryOracle(const StoreScenario &scenario);
/// @}

/// @name Causal what-if vs re-simulation
/// @{
/**
 * Simulate @p scenario (probes off), build a ct::causal engine from the
 * run's own empirical edge profile, and require — to floating-point
 * tolerance, not statistically — that
 *  - the analytic baseline equals the run's measured mean cycles per
 *    invocation (the visit-identity argument of docs/CAUSAL.md), and
 *  - for every invoked procedure, the analytic `whatIf(p, 1.0)` delta
 *    equals the measured delta of re-simulating on the same input
 *    streams with that procedure's control penalties genuinely zeroed
 *    (SimConfig::zeroCtrlPenalty), and
 *  - the dial is linear: `whatIf(p, 0.5)` recovers exactly half.
 * Skips runs whose entry was never invoked.
 */
std::optional<std::string>
causalResimulationOracle(const CfgScenario &scenario);

/** The same invariant on a named paper workload. */
std::optional<std::string>
causalWorkloadResimulationOracle(const std::string &workload_name,
                                 uint64_t seed, size_t invocations);
/// @}

/// @name Parallel determinism
/// @{
/**
 * Run the full TomographyPipeline on @p workload_name twice — jobs=1
 * and jobs=@p jobs — and require bitwise-equal results (thetas, layout
 * outcomes, cycle counts, traces).
 */
std::optional<std::string>
pipelineJobsInvarianceOracle(const std::string &workload_name, uint64_t seed,
                             size_t measure_invocations,
                             size_t eval_invocations, size_t jobs);

/**
 * Same contract for a lossy fleet campaign: one shard at jobs=1 against
 * @p jobs shards ingested by @p jobs workers. Every per-mote field and
 * the merged digest must match, so neither the thread count nor the
 * shard count may leak into a mote's seeds or its sink state.
 */
std::optional<std::string>
fleetJobsInvarianceOracle(const std::string &workload_name, uint64_t seed,
                          size_t motes, size_t invocations,
                          const net::ChannelConfig &channel, size_t jobs);
/// @}

} // namespace ct::check

#endif // CT_CHECK_ORACLES_HH
