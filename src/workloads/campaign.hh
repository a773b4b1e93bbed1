/**
 * @file
 * The campaign path: the paper's loop — time procedure boundaries on
 * the mote (measure lane), estimate branch probabilities, place code,
 * score a placement with the probes off (evaluate lane) — as the one
 * set of functions the pipeline, continuous PGO's bootstrap and
 * lanes, the fleet and relay motes and the check oracles all call.
 * No driver derives a seed from a campaign seed or builds inputs plus
 * a sim::Simulator on its own, so two drivers given one seed simulate
 * the same events and place the same layout by construction. Every
 * seed is a pure function of its arguments (the determinism contract
 * of exec/thread_pool.hh).
 */

#ifndef CT_WORKLOADS_CAMPAIGN_HH
#define CT_WORKLOADS_CAMPAIGN_HH

#include <cstdint>
#include <vector>

#include "sim/machine.hh"
#include "tomography/estimator.hh"
#include "workloads/workload.hh"

namespace ct::workloads {

/// @name Seed derivation
/// A stage XORs a four-letter ASCII tag ("rand", "meas", ...) into the
/// campaign seed, so one seed drives independent streams; keyed seeds
/// (windows, links, motes) stride a Weyl sequence.
/// @{
inline constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/** Rng seed of the pipeline's baseline candidate placements. */
inline uint64_t candidateSeed(uint64_t seed) { return seed ^ 0x72616e64; }
/** Campaign seed of continuous-PGO window @p window. */
inline uint64_t windowSeed(uint64_t seed, size_t window)
{
    return seed ^ (kGolden * (window + 1));
}
/** Channel seed of a relay tree's link from node @p child upward. */
uint64_t linkSeed(uint64_t seed, size_t child);

/** One fleet mote's independent seeds. */
struct MoteSeeds
{
    uint64_t sim = 0;
    uint64_t inputs = 0;
    uint64_t channel = 0;
};

/** The seeds of fleet mote @p key (a mote id or a template index),
 *  from the campaign seed and the key alone. */
MoteSeeds moteSeeds(uint64_t seed, uint64_t key);
/// @}

/** Continuous PGO's input regime: each sensor / radio value v becomes
 *  llround(scale * v + offset). The Rng draws are unchanged, so a shift
 *  re-biases a lane's inputs without re-randomizing them. */
struct InputShift
{
    double senseScale = 1.0;
    double senseOffset = 0.0;
    double radioScale = 1.0;
    double radioOffset = 0.0;
};

/** The measure lane: @p invocations of the entry procedure on the
 *  natural layout with boundary probes on. */
sim::RunResult measureLane(const Workload &workload,
                           const sim::LoweredModule &natural,
                           const sim::SimConfig &config, uint64_t seed,
                           size_t invocations,
                           const InputShift *shift = nullptr);

/** The evaluate lane: every placement in @p placements (per-procedure
 *  orders) with probes off, one result per placement, in order. Inputs
 *  and simulator depend on @p seed alone, so placements evaluated under
 *  one seed see the same events and differ in placement alone: the lane
 *  simulates the first placement and prices every other from that
 *  run's edge profile (sim::Simulator::price), bit for bit. A module
 *  that reads the timer can branch on the placement's cycles, so then
 *  the lane simulates each placement. procCycles is empty in every
 *  result: pricing cannot derive it and no lane caller reads it. */
std::vector<sim::RunResult>
evaluateLane(const Workload &workload,
             const std::vector<std::vector<sim::BlockOrder>> &placements,
             const sim::SimConfig &config, uint64_t seed, size_t invocations,
             const InputShift *shift = nullptr);

/** One run of @p invocations on @p lowered, seeded by @p seeds alone
 *  (probes as @p config sets them): a fleet mote's own campaign, or a
 *  check oracle's scenario. */
sim::RunResult simulateMote(const Workload &workload,
                            const sim::LoweredModule &lowered,
                            const sim::SimConfig &config,
                            const MoteSeeds &seeds, size_t invocations);

/** Estimate every procedure from a measure lane's @p trace with a
 *  fresh estimator of @p kind under default options. */
tomography::ModuleEstimate
estimateTrace(const Workload &workload, const sim::LoweredModule &natural,
              const sim::SimConfig &config, tomography::EstimatorKind kind,
              const trace::TimingTrace &trace);

/** Profile-guided placement of every procedure from @p profile. */
std::vector<sim::BlockOrder> placeFromProfile(const ir::Module &module,
                                              const ir::ModuleProfile &profile,
                                              uint64_t seed);

} // namespace ct::workloads

#endif // CT_WORKLOADS_CAMPAIGN_HH
