/**
 * @file
 * Mote energy accounting.
 *
 * Sensor nodes are energy-limited, and the paper's case for both
 * low-overhead profiling and code placement is ultimately an energy
 * argument: fewer cycles awake and fewer radio operations mean longer
 * battery life. The simulator classifies every cycle into an activity
 * class; this model converts those cycle counts into charge (and, at a
 * fixed supply voltage, energy) using TelosB-era current draws.
 */

#ifndef CT_SIM_ENERGY_HH
#define CT_SIM_ENERGY_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "ir/inst.hh"

namespace ct::sim {

/** What the mote was doing during a cycle. */
enum class Activity : uint8_t {
    CpuActive, //!< executing instructions
    Sleep,     //!< low-power wait (Sleep instruction)
    Sense,     //!< ADC conversion
    RadioTx,
    RadioRx,
    Idle,      //!< inter-event gap (MCU sleeping between events)
};

constexpr size_t kActivityCount = 6;

const char *activityName(Activity activity);

/** The activity class a straight-line instruction's cycles count
 *  toward: the simulator's accounting and the causal model's. */
Activity activityOf(ir::Opcode op);

/** Cycle counts per activity class, filled by the simulator. */
struct ActivityCycles
{
    std::array<uint64_t, kActivityCount> cycles{};

    uint64_t &operator[](Activity a) { return cycles[size_t(a)]; }
    uint64_t operator[](Activity a) const { return cycles[size_t(a)]; }

    uint64_t total() const;
    void merge(const ActivityCycles &other);
};

/**
 * Current draw per activity class in microamps, plus clock and supply
 * parameters; energyMicrojoules() integrates charge over the cycle
 * counts.
 */
struct EnergyModel
{
    /// @name Current draws (uA)
    /// @{
    double cpuActiveUa = 1800.0; //!< MSP430 active @ 4 MHz
    double sleepUa = 5.1;        //!< LPM3
    double senseUa = 2400.0;     //!< CPU + ADC
    double radioTxUa = 19500.0;  //!< CC2420 TX at 0 dBm (incl. CPU)
    double radioRxUa = 21800.0;  //!< CC2420 RX (incl. CPU)
    double idleUa = 5.1;         //!< between events: LPM3 again
    /// @}

    double clockHz = 4'000'000.0;
    double supplyVolts = 3.0;

    /** Current for one activity class (uA). */
    double currentUa(Activity activity) const;

    /** Energy of a run in microjoules. */
    double energyMicrojoules(const ActivityCycles &activity) const;

    /** Average current of a run in microamps. */
    double averageCurrentUa(const ActivityCycles &activity) const;
};

/** The default TelosB-flavoured energy model. */
EnergyModel telosEnergyModel();

} // namespace ct::sim

#endif // CT_SIM_ENERGY_HH
