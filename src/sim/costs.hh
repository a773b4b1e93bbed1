/**
 * @file
 * Cycle cost model of the simulated mote core.
 *
 * Defaults approximate an MSP430-class in-order MCU (TelosB): single-
 * cycle ALU, 2-3 cycle memory, multi-cycle software-assisted multiply,
 * expensive radio access, and a flush penalty on mispredicted (taken,
 * under the default static not-taken scheme) control transfers.
 */

#ifndef CT_SIM_COSTS_HH
#define CT_SIM_COSTS_HH

#include <cstdint>

#include "ir/block.hh"

namespace ct::sim {

/** Static branch prediction scheme of the core. */
enum class PredictPolicy : uint8_t {
    NotTaken, //!< predict every conditional branch not-taken (default)
    Taken,    //!< predict every conditional branch taken
    BTFN,     //!< backward taken, forward not-taken
};

const char *policyName(PredictPolicy policy);

/** Per-operation cycle costs. */
struct CostModel
{
    /// @name Straight-line instruction cycles
    /// @{
    uint32_t alu = 1;        //!< add/sub/logic/shift/mov/li
    uint32_t mul = 8;        //!< software-assisted multiply
    uint32_t load = 3;
    uint32_t store = 3;
    uint32_t sense = 12;     //!< ADC conversion wait
    uint32_t radioTx = 32;   //!< SPI handoff of one payload word
    uint32_t radioRx = 24;
    uint32_t timerRead = 2;  //!< timer capture register read
    uint32_t nop = 1;
    /// @}

    /// @name Control transfer cycles
    /// @{
    uint32_t branchBase = 2;       //!< conditional branch, before penalty
    uint32_t jump = 2;             //!< unconditional jump
    uint32_t callOverhead = 5;     //!< call linkage
    uint32_t retOverhead = 4;      //!< return linkage
    uint32_t mispredictPenalty = 3; //!< pipeline flush on a mispredict
    /**
     * Extra cycles when the callee lies outside the near-call window in
     * flash (long-call encoding / extra fetch). 0 disables procedure-
     * placement effects entirely (the default, so estimation models
     * that ignore flash layout stay exact).
     */
    uint32_t farCallExtra = 0;
    /** Flash-slot distance up to which a call is "near". */
    uint32_t nearCallWindow = 1;
    /// @}

    /** Cycles of one straight-line instruction (Sleep uses its imm). */
    uint64_t cyclesFor(const ir::Inst &inst) const;
};

/**
 * Cycles a probed callee's own entry and exit timer reads add to its
 * caller's measured time — what every estimator of a probed trace
 * passes as tomography::TimingModel's nested_probe_cycles.
 */
double nestedProbeCycles(const CostModel &costs);

/** The default TelosB-flavoured model. */
CostModel telosCostModel();

/**
 * A MicaZ/AVR-flavoured variant: cheaper memory, pricier multiply and a
 * deeper-flush control path. Used by the sensitivity ablation.
 */
CostModel micazCostModel();

} // namespace ct::sim

#endif // CT_SIM_COSTS_HH
