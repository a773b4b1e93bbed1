#include "sim/costs.hh"

#include "util/logging.hh"

namespace ct::sim {

const char *
policyName(PredictPolicy policy)
{
    switch (policy) {
      case PredictPolicy::NotTaken: return "not-taken";
      case PredictPolicy::Taken: return "taken";
      case PredictPolicy::BTFN: return "btfn";
    }
    panic("policyName: bad policy ", int(policy));
}

uint64_t
CostModel::cyclesFor(const ir::Inst &inst) const
{
    using ir::Opcode;
    switch (inst.op) {
      case Opcode::Nop:
        return nop;
      case Opcode::Li:
      case Opcode::Mov:
      case Opcode::Add:
      case Opcode::AddI:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::ShrI:
        return alu;
      case Opcode::Mul:
        return mul;
      case Opcode::Ld:
        return load;
      case Opcode::St:
        return store;
      case Opcode::Sense:
        return sense;
      case Opcode::RadioTx:
        return radioTx;
      case Opcode::RadioRx:
        return radioRx;
      case Opcode::TimerRead:
        return timerRead;
      case Opcode::Sleep:
        return uint64_t(inst.imm);
      case Opcode::Call:
        // The linkage cycles; the callee body is accounted separately.
        return callOverhead;
    }
    panic("cyclesFor: bad opcode ", int(inst.op));
}

double
nestedProbeCycles(const CostModel &costs)
{
    return 2.0 * double(costs.timerRead);
}

CostModel
telosCostModel()
{
    return CostModel{};
}

CostModel
micazCostModel()
{
    CostModel m;
    m.load = 2;
    m.store = 2;
    m.mul = 12;
    m.mispredictPenalty = 4;
    m.sense = 16;
    return m;
}

} // namespace ct::sim
