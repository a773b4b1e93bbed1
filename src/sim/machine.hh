/**
 * @file
 * The mote simulator: executes a placed module, accounting cycles under
 * the cost model and static branch prediction, while collecting the
 * ground-truth edge profile and (optionally) boundary timing records.
 */

#ifndef CT_SIM_MACHINE_HH
#define CT_SIM_MACHINE_HH

#include <vector>

#include "ir/module.hh"
#include "ir/profile.hh"
#include "sim/costs.hh"
#include "sim/devices.hh"
#include "sim/energy.hh"
#include "sim/lower.hh"
#include "stats/rng.hh"
#include "trace/timing_trace.hh"

namespace ct::sim {

/** Words of data RAM every simulated mote has. */
constexpr size_t kRamWords = 1024;

/** Simulator configuration. */
struct SimConfig
{
    CostModel costs = telosCostModel();
    PredictPolicy policy = PredictPolicy::NotTaken;
    uint64_t cyclesPerTick = 8;      //!< timer quantization quantum
    bool timingProbes = true;        //!< capture start/end timestamps
    uint32_t maxGapCycles = 97;      //!< random idle gap between events
    uint64_t maxStepsPerInvocation = 5'000'000;
    uint32_t maxCallDepth = 64;

    /**
     * Per-ProcId counterfactual flags: when a procedure's entry is set,
     * the core charges none of its control-placement penalties — no
     * mispredict flush and no trailing untaken jump cycles — while still
     * counting the events in the run statistics. This is the "genuinely
     * zero-penalty layout" ct::causal prices analytically; the
     * differential oracle in ct::check re-simulates it here. Shorter
     * than the procedure count (or empty, the default) means no
     * procedure is zeroed.
     */
    std::vector<uint8_t> zeroCtrlPenalty;

    /// @name Interrupt preemption model
    /// @{
    /** Probability that an unrelated ISR fires at a block boundary
     *  (radio/timer housekeeping stealing cycles mid-procedure). */
    double isrPerBlockProb = 0.0;
    /** Cycles one such ISR steals. */
    uint32_t isrCycles = 30;
    /// @}
};

/** Dynamic conditional-branch statistics. */
struct BranchStats
{
    uint64_t executed = 0;
    uint64_t taken = 0;
    uint64_t mispredicted = 0;

    double mispredictRate() const
    {
        return executed ? double(mispredicted) / double(executed) : 0.0;
    }
    double takenRate() const
    {
        return executed ? double(taken) / double(executed) : 0.0;
    }
};

/** Everything one measurement campaign produces. */
struct RunResult
{
    ir::ModuleProfile profile;  //!< ground-truth logical edge counts
    trace::TimingTrace trace;   //!< boundary timing records (if probed)
    uint64_t totalCycles = 0;   //!< all cycles including probes and gaps
    BranchStats branches;
    uint64_t instructions = 0;  //!< straight-line instructions executed
    uint64_t dynamicJumps = 0;  //!< executed unconditional jumps
    uint64_t isrFirings = 0;    //!< interrupt preemptions simulated
    uint64_t farCalls = 0;      //!< calls that paid the far-call extra
    ActivityCycles activity;    //!< cycle classification for energy
    std::vector<uint64_t> invocations; //!< per-ProcId invocation counts
    /** Per-ProcId body cycles, inclusive of callees; empty in a priced
     *  result (Simulator::price). */
    std::vector<uint64_t> procCycles;
    std::vector<ir::Word> finalRam;    //!< RAM snapshot after the run
};

/** Whether any procedure of @p module executes TimerRead, the one
 *  instruction that observes the cycle counter. */
bool readsTimer(const ir::Module &module);

/**
 * Executes procedures of one placed module. RAM persists across
 * invocations within a run (mote globals); registers are per-frame.
 *
 * The constructor decodes the placed module once under its config:
 * each block's effectful ops, its cycles per activity class, its
 * successor positions and its control costs with the prediction
 * policy and any zeroed penalty applied. run() then only counts block
 * visits and taken branches, and derives the statistics, the activity
 * classes and the edge profile from those counts when it ends. price()
 * derives the same counts for another placement from a finished run.
 */
class Simulator
{
  public:
    /**
     * @param module  the logical program (must outlive the simulator)
     * @param lowered its placed form
     * @param config  machine parameters
     * @param inputs  sensor/radio streams (must outlive the simulator)
     * @param seed    seeds the inter-invocation gap stream
     */
    Simulator(const ir::Module &module, LoweredModule lowered,
              SimConfig config, InputSource &inputs, uint64_t seed);

    /**
     * Run @p count invocations of @p entry back-to-back (with small
     * random idle gaps), collecting profile/trace/stats.
     */
    RunResult run(ir::ProcId entry, size_t count);

    /**
     * What run() returns for @p lowered, derived from @p simulated: a
     * run() of another placement of @p module under the same config,
     * entry, count, inputs and seed. When no event observes the cycle
     * counter (probes off, no TimerRead; both asserted), every
     * placement executes the same instructions and draws the same ISR,
     * gap and input values, so the placements differ only in what a
     * block visit and a branch outcome cost. The visits and outcomes
     * come from @p simulated's edge profile and fold() does the rest,
     * so every field is bitwise run()'s except procCycles, which is
     * left empty: inclusive per-frame cycles are no function of the
     * counts. Needs the placement's decode but no inputs and no seed.
     */
    static RunResult price(const ir::Module &module,
                           const LoweredModule &lowered,
                           const SimConfig &config,
                           const RunResult &simulated);

    const SimConfig &config() const { return config_; }
    const LoweredModule &lowered() const { return lowered_; }

  private:
    /** A straight-line instruction with an architectural effect
     *  (Nop, Sleep and RadioTx only spend cycles). */
    struct Op
    {
        ir::Opcode op = ir::Opcode::Nop;
        ir::Reg rd = 0;
        ir::Reg rs1 = 0;
        ir::Reg rs2 = 0;
        ir::Word imm = 0;
        /** Cycles spent before the effect: the op's own and those of the
         *  cycle-only ops before it. 0 in blocks without TimerRead or
         *  Call, whose body cycles are spent in bulk. */
        uint64_t lead = 0;
    };

    /** One placed block, decoded. */
    struct Block
    {
        uint32_t firstOp = 0; //!< into DecodedProc::ops
        uint32_t opCount = 0;
        uint64_t tailCycles = 0; //!< body cycles not in any op's lead
        CtrlKind ctrl = CtrlKind::Ret;
        ir::CondCode cond = ir::CondCode::Eq;
        ir::Reg lhs = 0;
        ir::Reg rhs = 0;
        uint32_t condPos = 0;  //!< position reached when cond holds
        uint32_t otherPos = 0; //!< position reached otherwise
        uint64_t condCost = 0; //!< control cycles when cond holds
        uint64_t otherCost = 0; //!< control cycles otherwise (Ret too)

        /// @name Used only to derive a run's results
        /// @{
        ir::BlockId block = ir::kNoBlock;
        ir::BlockId condTarget = ir::kNoBlock;
        ir::BlockId otherTarget = ir::kNoBlock;
        bool predictTaken = false;
        uint32_t insts = 0;    //!< straight-line instruction count
        uint32_t farCalls = 0; //!< Call ops that pay farCallExtra
        ActivityCycles body;   //!< body cycles per activity class
        /// @}
    };

    /** One procedure's decoded blocks plus its per-run counters. */
    struct DecodedProc
    {
        std::vector<Block> blocks; //!< physical order
        std::vector<Op> ops;
        std::vector<uint64_t> visits; //!< per position, this run
        std::vector<uint64_t> taken;  //!< cond held, per position
    };

    /** Decode every procedure of @p lowered under @p config, with
     *  zeroed counters. */
    static std::vector<DecodedProc> decode(const ir::Module &module,
                                           const LoweredModule &lowered,
                                           const SimConfig &config);

    /** Execute one invocation of @p proc starting at cycle @p cycles;
     *  returns the cycle counter after its exit. */
    uint64_t execProcedure(ir::ProcId proc, RunResult &result,
                           uint32_t depth, uint64_t cycles);

    /** Derive the block-count statistics, the activity classes and the
     *  edge profile of a finished run from the counters of @p procs,
     *  given its invocations, ISR firings and @p idle_cycles. */
    static void fold(const std::vector<DecodedProc> &procs,
                     const SimConfig &config, RunResult &result,
                     uint64_t idle_cycles);

    const ir::Module &module_;
    LoweredModule lowered_;
    SimConfig config_;
    InputSource &inputs_;
    Timer timer_;
    Rng gapRng_;
    std::vector<ir::Word> ram_;
    std::vector<DecodedProc> procs_; //!< indexed by ProcId
};

} // namespace ct::sim

#endif // CT_SIM_MACHINE_HH
