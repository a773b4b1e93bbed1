#include "sim/energy.hh"

#include "util/logging.hh"

namespace ct::sim {

const char *
activityName(Activity activity)
{
    switch (activity) {
      case Activity::CpuActive: return "cpu";
      case Activity::Sleep: return "sleep";
      case Activity::Sense: return "sense";
      case Activity::RadioTx: return "radio-tx";
      case Activity::RadioRx: return "radio-rx";
      case Activity::Idle: return "idle";
    }
    panic("activityName: bad activity ", int(activity));
}

Activity
activityOf(ir::Opcode op)
{
    switch (op) {
      case ir::Opcode::Sleep: return Activity::Sleep;
      case ir::Opcode::Sense: return Activity::Sense;
      case ir::Opcode::RadioTx: return Activity::RadioTx;
      case ir::Opcode::RadioRx: return Activity::RadioRx;
      default: return Activity::CpuActive;
    }
}

uint64_t
ActivityCycles::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : cycles)
        sum += c;
    return sum;
}

void
ActivityCycles::merge(const ActivityCycles &other)
{
    for (size_t i = 0; i < kActivityCount; ++i)
        cycles[i] += other.cycles[i];
}

double
EnergyModel::currentUa(Activity activity) const
{
    switch (activity) {
      case Activity::CpuActive: return cpuActiveUa;
      case Activity::Sleep: return sleepUa;
      case Activity::Sense: return senseUa;
      case Activity::RadioTx: return radioTxUa;
      case Activity::RadioRx: return radioRxUa;
      case Activity::Idle: return idleUa;
    }
    panic("currentUa: bad activity ", int(activity));
}

double
EnergyModel::energyMicrojoules(const ActivityCycles &activity) const
{
    // E = V * sum_a I_a * t_a, with t_a = cycles_a / f.
    double micro_joules = 0.0;
    for (size_t i = 0; i < kActivityCount; ++i) {
        double seconds = double(activity.cycles[i]) / clockHz;
        micro_joules += supplyVolts * currentUa(Activity(i)) * seconds;
    }
    return micro_joules;
}

double
EnergyModel::averageCurrentUa(const ActivityCycles &activity) const
{
    uint64_t total = activity.total();
    if (total == 0)
        return 0.0;
    double weighted = 0.0;
    for (size_t i = 0; i < kActivityCount; ++i)
        weighted += currentUa(Activity(i)) * double(activity.cycles[i]);
    return weighted / double(total);
}

EnergyModel
telosEnergyModel()
{
    return EnergyModel{};
}

} // namespace ct::sim
