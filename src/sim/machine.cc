#include "sim/machine.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace ct::sim {

namespace {

/** ir::evalCond, inlined into the block loop. */
inline bool
holds(ir::CondCode cond, ir::Word lhs, ir::Word rhs)
{
    switch (cond) {
      case ir::CondCode::Eq: return lhs == rhs;
      case ir::CondCode::Ne: return lhs != rhs;
      case ir::CondCode::Lt: return lhs < rhs;
      case ir::CondCode::Ge: return lhs >= rhs;
      case ir::CondCode::Ltu: return uint32_t(lhs) < uint32_t(rhs);
      case ir::CondCode::Geu: return uint32_t(lhs) >= uint32_t(rhs);
    }
    panic("holds: bad CondCode ", int(cond));
}

/** Instructions whose only effect is their cycles (RadioTx's payload
 *  value has no architectural effect). */
bool
cyclesOnly(ir::Opcode op)
{
    return op == ir::Opcode::Nop || op == ir::Opcode::Sleep ||
           op == ir::Opcode::RadioTx;
}

bool
isConditional(CtrlKind ctrl)
{
    return ctrl == CtrlKind::CondBr || ctrl == CtrlKind::CondBrPlusJmp;
}

} // namespace

bool
readsTimer(const ir::Module &module)
{
    for (ir::ProcId p = 0; p < module.procedureCount(); ++p)
        for (const ir::BasicBlock &bb : module.procedure(p).blocks())
            for (const ir::Inst &inst : bb.insts)
                if (inst.op == ir::Opcode::TimerRead)
                    return true;
    return false;
}

Simulator::Simulator(const ir::Module &module, LoweredModule lowered,
                     SimConfig config, InputSource &inputs, uint64_t seed)
    : module_(module), lowered_(std::move(lowered)), config_(config),
      inputs_(inputs), timer_(config.cyclesPerTick), gapRng_(seed),
      ram_(kRamWords, 0), procs_(decode(module, lowered_, config_))
{
}

std::vector<Simulator::DecodedProc>
Simulator::decode(const ir::Module &module, const LoweredModule &lowered,
                  const SimConfig &config)
{
    CT_ASSERT(lowered.procs.size() == module.procedureCount(),
              "lowered module does not match the logical module");
    const CostModel &costs = config.costs;
    std::vector<DecodedProc> procs(module.procedureCount());

    for (ir::ProcId p = 0; p < procs.size(); ++p) {
        const ir::Procedure &proc = module.procedure(p);
        const LoweredProc &placed = lowered.procs[p];
        const bool zeroed =
            p < config.zeroCtrlPenalty.size() && config.zeroCtrlPenalty[p];
        const uint64_t flush = zeroed ? 0 : costs.mispredictPenalty;
        auto position = [&](ir::BlockId target) {
            CT_ASSERT(target < placed.positionOf.size() &&
                          placed.positionOf[target] < placed.order.size(),
                      "'", proc.name(), "': successor bb", target,
                      " is not placed");
            return uint32_t(placed.positionOf[target]);
        };
        DecodedProc &out = procs[p];

        for (uint32_t pos = 0; pos < placed.order.size(); ++pos) {
            const LoweredBlock &lb = placed.order[pos];
            const ir::BasicBlock &bb = proc.block(lb.block);
            Block block;
            block.firstOp = uint32_t(out.ops.size());
            block.ctrl = lb.ctrl;
            block.block = lb.block;
            block.insts = uint32_t(bb.insts.size());

            // The body: TimerRead sees, and a callee starts at, a cycle
            // count that includes every earlier instruction and its own
            // linkage, so those blocks spend cycles op by op. Elsewhere
            // no instruction observes the counter and the whole body is
            // spent at once.
            const bool timed =
                std::any_of(bb.insts.begin(), bb.insts.end(), [](auto &i) {
                    return i.op == ir::Opcode::TimerRead ||
                           i.op == ir::Opcode::Call;
                });
            uint64_t pending = 0;
            for (const ir::Inst &inst : bb.insts) {
                uint64_t cost = costs.cyclesFor(inst);
                if (inst.op == ir::Opcode::Call) {
                    const auto callee = ir::ProcId(inst.imm);
                    CT_ASSERT(callee < procs.size(), "'", proc.name(),
                              "' calls procedure id ", callee,
                              " out of range");
                    if (costs.farCallExtra > 0 &&
                        lowered.procDistance(p, callee) >
                            costs.nearCallWindow) {
                        cost += costs.farCallExtra;
                        ++block.farCalls;
                    }
                }
                block.body[activityOf(inst.op)] += cost;
                pending += cost;
                if (cyclesOnly(inst.op))
                    continue;
                out.ops.push_back({inst.op, inst.rd, inst.rs1, inst.rs2,
                                   inst.imm, timed ? pending : 0});
                if (timed)
                    pending = 0;
            }
            block.opCount = uint32_t(out.ops.size()) - block.firstOp;
            block.tailCycles = pending;

            // Control: both outcomes' cycles, with the static prediction
            // and a zeroed procedure's penalties already applied.
            switch (lb.ctrl) {
              case CtrlKind::Ret:
                block.otherCost = costs.retOverhead;
                break;
              case CtrlKind::Fallthrough:
              case CtrlKind::Jmp:
                block.otherTarget = lb.otherTarget;
                block.otherPos = position(lb.otherTarget);
                block.otherCost = lb.ctrl == CtrlKind::Jmp ? costs.jump : 0;
                break;
              case CtrlKind::CondBr:
              case CtrlKind::CondBrPlusJmp:
                block.cond = lb.cond;
                block.lhs = lb.lhs;
                block.rhs = lb.rhs;
                block.condTarget = lb.condTarget;
                block.otherTarget = lb.otherTarget;
                block.condPos = position(lb.condTarget);
                block.otherPos = position(lb.otherTarget);
                block.predictTaken =
                    predictsTaken(config.policy, pos, block.condPos);
                block.condCost =
                    costs.branchBase + (block.predictTaken ? 0 : flush);
                block.otherCost =
                    costs.branchBase + (block.predictTaken ? flush : 0);
                if (lb.ctrl == CtrlKind::CondBrPlusJmp && !zeroed)
                    block.otherCost += costs.jump;
                break;
            }
            out.blocks.push_back(block);
        }
        out.visits.assign(out.blocks.size(), 0);
        out.taken.assign(out.blocks.size(), 0);
    }
    return procs;
}

RunResult
Simulator::run(ir::ProcId entry, size_t count)
{
    CT_ASSERT(entry < procs_.size(), "run: bad entry procedure");
    CT_SPAN("sim.run");

    RunResult result;
    result.profile.resize(procs_.size());
    result.invocations.assign(procs_.size(), 0);
    result.procCycles.assign(procs_.size(), 0);

    std::fill(ram_.begin(), ram_.end(), 0);
    for (auto &proc : procs_) {
        std::fill(proc.visits.begin(), proc.visits.end(), 0);
        std::fill(proc.taken.begin(), proc.taken.end(), 0);
    }

    uint64_t cycles = 0; // absolute cycle counter across the run
    uint64_t idle = 0;
    for (size_t i = 0; i < count; ++i) {
        cycles = execProcedure(entry, result, 0, cycles);
        if (config_.maxGapCycles > 0) {
            uint64_t gap = gapRng_.below(config_.maxGapCycles + 1);
            cycles += gap;
            idle += gap;
        }
    }
    result.totalCycles = cycles;
    result.finalRam = ram_;
    fold(procs_, config_, result, idle);
    CT_ASSERT(result.activity.total() == result.totalCycles,
              "activity classes do not add up to the run's cycles");

    // Batch-level self-measurement: recorded once per run() so the
    // per-instruction path stays unobserved (and unperturbed).
    if (obs::metricsEnabled() && count > 0) {
        auto &m = obs::metrics();
        m.counter("sim.runs").add(1);
        m.counter("sim.invocations").add(count);
        m.counter("sim.instructions").add(result.instructions);
        m.counter("sim.branches").add(result.branches.executed);
        m.histogram("sim.cycles_per_invocation")
            .record(int64_t(result.totalCycles / count));
    }
    return result;
}

RunResult
Simulator::price(const ir::Module &module, const LoweredModule &lowered,
                 const SimConfig &config, const RunResult &simulated)
{
    CT_ASSERT(!config.timingProbes,
              "price: a probed run's trace depends on its placement");
    CT_ASSERT(!readsTimer(module),
              "price: a TimerRead lets control flow depend on the placement");
    CT_ASSERT(simulated.profile.size() == module.procedureCount() &&
                  simulated.invocations.size() == module.procedureCount(),
              "price: the simulated run is of another module");
    std::vector<DecodedProc> procs = decode(module, lowered, config);

    // A block that transfers control is visited once per traversal of
    // its out-edges, a Ret block once per traversal of its in-edges
    // plus, as the entry, once per invocation. A conditional's
    // condition held once per traversal to its condTarget, which the
    // verifier keeps apart from its otherTarget.
    for (ir::ProcId p = 0; p < procs.size(); ++p) {
        DecodedProc &proc = procs[p];
        const std::vector<size_t> &position = lowered.procs[p].positionOf;
        for (const auto &[edge, count] : simulated.profile[p].cells()) {
            const size_t from = position[edge.first];
            const size_t to = position[edge.second];
            proc.visits[from] += uint64_t(count);
            if (proc.blocks[from].condTarget == edge.second)
                proc.taken[from] += uint64_t(count);
            if (proc.blocks[to].ctrl == CtrlKind::Ret)
                proc.visits[to] += uint64_t(count);
        }
        if (proc.blocks[0].ctrl == CtrlKind::Ret) // the entry is first
            proc.visits[0] += simulated.invocations[p];
    }

    RunResult result;
    result.profile.resize(procs.size());
    result.invocations = simulated.invocations;
    result.isrFirings = simulated.isrFirings;
    result.finalRam = simulated.finalRam;
    fold(procs, config, result, simulated.activity[Activity::Idle]);
    result.totalCycles = result.activity.total();
    return result;
}

void
Simulator::fold(const std::vector<DecodedProc> &procs,
                const SimConfig &config, RunResult &result,
                uint64_t idle_cycles)
{
    // Every count is an integer below 2^53, so each profile double
    // equals the sum of 1.0 increments an edge-by-edge profile adds.
    ActivityCycles &activity = result.activity;
    uint64_t invocations = 0;
    for (ir::ProcId p = 0; p < procs.size(); ++p) {
        const DecodedProc &proc = procs[p];
        ir::EdgeProfile &profile = result.profile[p];
        invocations += result.invocations[p];
        if (result.invocations[p] > 0)
            profile.addInvocations(double(result.invocations[p]));

        for (size_t pos = 0; pos < proc.blocks.size(); ++pos) {
            const Block &block = proc.blocks[pos];
            const uint64_t visits = proc.visits[pos];
            const uint64_t held = proc.taken[pos];
            const uint64_t other = visits - held;
            result.instructions += visits * block.insts;
            result.farCalls += visits * block.farCalls;
            for (size_t a = 0; a < kActivityCount; ++a)
                activity.cycles[a] += visits * block.body.cycles[a];
            activity[Activity::CpuActive] +=
                held * block.condCost + other * block.otherCost;

            switch (block.ctrl) {
              case CtrlKind::Ret:
                break;
              case CtrlKind::Jmp:
                result.dynamicJumps += visits;
                [[fallthrough]];
              case CtrlKind::Fallthrough:
                if (visits > 0)
                    profile.addEdge(block.block, block.otherTarget,
                                    double(visits));
                break;
              case CtrlKind::CondBrPlusJmp:
                result.dynamicJumps += other;
                [[fallthrough]];
              case CtrlKind::CondBr:
                result.branches.executed += visits;
                result.branches.taken += held;
                result.branches.mispredicted +=
                    block.predictTaken ? other : held;
                if (held > 0)
                    profile.addEdge(block.block, block.condTarget,
                                    double(held));
                if (other > 0)
                    profile.addEdge(block.block, block.otherTarget,
                                    double(other));
                break;
            }
        }
    }
    if (config.timingProbes)
        activity[Activity::CpuActive] +=
            2 * invocations * config.costs.timerRead;
    activity[Activity::CpuActive] += result.isrFirings * config.isrCycles;
    activity[Activity::Idle] += idle_cycles;
}

uint64_t
Simulator::execProcedure(ir::ProcId proc_id, RunResult &result,
                         uint32_t depth, uint64_t cycles)
{
    if (depth > config_.maxCallDepth)
        fatal("call depth exceeds ", config_.maxCallDepth,
              " (runaway recursion?)");

    DecodedProc &proc = procs_[proc_id];
    const uint64_t invocation = result.invocations[proc_id]++;

    trace::TimingRecord record;
    if (config_.timingProbes) {
        cycles += config_.costs.timerRead;
        record.proc = proc_id;
        record.invocation = invocation;
        record.startTick = timer_.ticksAt(cycles);
    }
    const uint64_t body_start = cycles;

    ir::Word regs[ir::kNumRegs] = {};
    uint32_t pos = 0; // entry is always physically first
    uint64_t steps = 0;

    for (;;) {
        if (++steps > config_.maxStepsPerInvocation)
            fatal("invocation of '", module_.procedure(proc_id).name(),
                  "' exceeded ", config_.maxStepsPerInvocation,
                  " blocks; non-terminating loop?");

        const Block &block = proc.blocks[pos];
        ++proc.visits[pos];

        // Unrelated interrupt preemption at the block boundary.
        if (config_.isrPerBlockProb > 0.0 &&
            gapRng_.bernoulli(config_.isrPerBlockProb)) {
            cycles += config_.isrCycles;
            ++result.isrFirings;
        }

        const Op *op = proc.ops.data() + block.firstOp;
        for (const Op *end = op + block.opCount; op != end; ++op) {
            using ir::Opcode;
            cycles += op->lead;
            switch (op->op) {
              case Opcode::Nop:
              case Opcode::Sleep:
              case Opcode::RadioTx:
                break; // cycles only; never decoded as ops
              case Opcode::Li:
                regs[op->rd] = op->imm;
                break;
              case Opcode::Mov:
                regs[op->rd] = regs[op->rs1];
                break;
              case Opcode::Add:
                regs[op->rd] = regs[op->rs1] + regs[op->rs2];
                break;
              case Opcode::AddI:
                regs[op->rd] = regs[op->rs1] + op->imm;
                break;
              case Opcode::Sub:
                regs[op->rd] = regs[op->rs1] - regs[op->rs2];
                break;
              case Opcode::Mul:
                regs[op->rd] = regs[op->rs1] * regs[op->rs2];
                break;
              case Opcode::And:
                regs[op->rd] = regs[op->rs1] & regs[op->rs2];
                break;
              case Opcode::Or:
                regs[op->rd] = regs[op->rs1] | regs[op->rs2];
                break;
              case Opcode::Xor:
                regs[op->rd] = regs[op->rs1] ^ regs[op->rs2];
                break;
              case Opcode::Shl:
                regs[op->rd] = regs[op->rs1] << (regs[op->rs2] & 31);
                break;
              case Opcode::Shr:
                regs[op->rd] = ir::Word(uint32_t(regs[op->rs1]) >>
                                        (regs[op->rs2] & 31));
                break;
              case Opcode::ShrI:
                regs[op->rd] =
                    ir::Word(uint32_t(regs[op->rs1]) >> (op->imm & 31));
                break;
              case Opcode::Ld: {
                int64_t addr = int64_t(regs[op->rs1]) + op->imm;
                if (addr < 0 || size_t(addr) >= ram_.size())
                    fatal("'", module_.procedure(proc_id).name(),
                          "': load address ", addr, " out of RAM (",
                          ram_.size(), " words)");
                regs[op->rd] = ram_[size_t(addr)];
                break;
              }
              case Opcode::St: {
                int64_t addr = int64_t(regs[op->rs1]) + op->imm;
                if (addr < 0 || size_t(addr) >= ram_.size())
                    fatal("'", module_.procedure(proc_id).name(),
                          "': store address ", addr, " out of RAM (",
                          ram_.size(), " words)");
                ram_[size_t(addr)] = regs[op->rs2];
                break;
              }
              case Opcode::Sense:
                regs[op->rd] = inputs_.sense(int(op->imm));
                break;
              case Opcode::RadioRx:
                regs[op->rd] = inputs_.radioRx();
                break;
              case Opcode::TimerRead:
                regs[op->rd] = ir::Word(timer_.ticksAt(cycles));
                break;
              case Opcode::Call:
                cycles = execProcedure(ir::ProcId(op->imm), result,
                                       depth + 1, cycles);
                break;
            }
        }
        cycles += block.tailCycles;

        // Control transfer: the edge, the branch outcome and the
        // mispredict are derived from visits and taken when run() ends.
        if (isConditional(block.ctrl) &&
            holds(block.cond, regs[block.lhs], regs[block.rhs])) {
            ++proc.taken[pos];
            cycles += block.condCost;
            pos = block.condPos;
        } else {
            cycles += block.otherCost;
            if (block.ctrl == CtrlKind::Ret)
                break;
            pos = block.otherPos;
        }
    }

    const uint64_t body_cycles = cycles - body_start;
    result.procCycles[proc_id] += body_cycles;

    if (config_.timingProbes) {
        record.endTick = timer_.ticksAt(cycles);
        record.trueCycles = body_cycles;
        cycles += config_.costs.timerRead;
        result.trace.add(record);
    }
    return cycles;
}

} // namespace ct::sim
