/**
 * @file
 * sim::Simulator against a per-instruction reference interpreter of
 * the same machine, which decodes nothing and folds nothing: it spends
 * every instruction's cycles from CostModel::cyclesFor, evaluates every
 * branch with ir::evalCond and sim::predictsTaken, and adds one 1.0 to
 * the edge profile per control transfer. The simulator must reproduce
 * every RunResult field bit for bit, over random programs and random
 * machine configurations, on two consecutive runs of one simulator.
 * Simulator::price must likewise reproduce a simulated run of each
 * placement from a run of another, and the evaluate lane must return
 * for every placement what it returns for that placement alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check/cfg_gen.hh"
#include "check/check.hh"
#include "ir/builder.hh"
#include "layout/placement.hh"
#include "sim/machine.hh"
#include "util/logging.hh"
#include "workloads/campaign.hh"

#include "prop_util.hh"

using namespace ct;

namespace {

/** The per-instruction interpreter: sim::Simulator's semantics with
 *  every cost, prediction and profile edge computed per event. */
class ReferenceSimulator
{
  public:
    ReferenceSimulator(const ir::Module &module, sim::LoweredModule lowered,
                       sim::SimConfig config, sim::InputSource &inputs,
                       uint64_t seed)
        : module_(module), lowered_(std::move(lowered)), config_(config),
          inputs_(inputs), timer_(config.cyclesPerTick), gapRng_(seed),
          ram_(sim::kRamWords, 0)
    {
    }

    sim::RunResult run(ir::ProcId entry, size_t count)
    {
        sim::RunResult result;
        result.profile.resize(module_.procedureCount());
        result.invocations.assign(module_.procedureCount(), 0);
        result.procCycles.assign(module_.procedureCount(), 0);
        std::fill(ram_.begin(), ram_.end(), 0);
        cycles_ = 0;
        for (size_t i = 0; i < count; ++i) {
            execProcedure(entry, result, 0);
            if (config_.maxGapCycles > 0) {
                uint64_t gap = gapRng_.below(config_.maxGapCycles + 1);
                cycles_ += gap;
                result.activity[sim::Activity::Idle] += gap;
            }
        }
        result.totalCycles = cycles_;
        result.finalRam = ram_;
        return result;
    }

  private:
    void execProcedure(ir::ProcId proc_id, sim::RunResult &result,
                       uint32_t depth)
    {
        using sim::Activity;
        using sim::CtrlKind;
        if (depth > config_.maxCallDepth)
            fatal("call depth exceeds ", config_.maxCallDepth);

        const ir::Procedure &proc = module_.procedure(proc_id);
        const sim::LoweredProc &placed = lowered_.procs[proc_id];
        const sim::CostModel &costs = config_.costs;

        uint64_t invocation = result.invocations[proc_id]++;
        result.profile[proc_id].addInvocations(1.0);

        auto spend = [&](uint64_t n, Activity act) {
            cycles_ += n;
            result.activity[act] += n;
        };

        trace::TimingRecord record;
        if (config_.timingProbes) {
            spend(costs.timerRead, Activity::CpuActive);
            record.proc = proc_id;
            record.invocation = invocation;
            record.startTick = timer_.ticksAt(cycles_);
        }
        const uint64_t body_start = cycles_;

        ir::Word regs[ir::kNumRegs] = {};
        size_t pos = 0;
        uint64_t steps = 0;
        bool running = true;

        while (running) {
            if (++steps > config_.maxStepsPerInvocation)
                fatal("non-terminating loop");

            const sim::LoweredBlock &lb = placed.order[pos];
            const ir::BasicBlock &bb = proc.block(lb.block);

            if (config_.isrPerBlockProb > 0.0 &&
                gapRng_.bernoulli(config_.isrPerBlockProb)) {
                spend(config_.isrCycles, Activity::CpuActive);
                ++result.isrFirings;
            }

            for (const auto &inst : bb.insts) {
                using ir::Opcode;
                const uint64_t cost = costs.cyclesFor(inst);
                switch (inst.op) {
                  case Opcode::Nop:
                    spend(cost, Activity::CpuActive);
                    break;
                  case Opcode::Sleep:
                    spend(cost, Activity::Sleep);
                    break;
                  case Opcode::Li:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = inst.imm;
                    break;
                  case Opcode::Mov:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1];
                    break;
                  case Opcode::Add:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2];
                    break;
                  case Opcode::AddI:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] + inst.imm;
                    break;
                  case Opcode::Sub:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2];
                    break;
                  case Opcode::Mul:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2];
                    break;
                  case Opcode::And:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2];
                    break;
                  case Opcode::Or:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2];
                    break;
                  case Opcode::Xor:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2];
                    break;
                  case Opcode::Shl:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = regs[inst.rs1] << (regs[inst.rs2] & 31);
                    break;
                  case Opcode::Shr:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = ir::Word(uint32_t(regs[inst.rs1]) >>
                                             (regs[inst.rs2] & 31));
                    break;
                  case Opcode::ShrI:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] =
                        ir::Word(uint32_t(regs[inst.rs1]) >> (inst.imm & 31));
                    break;
                  case Opcode::Ld: {
                    spend(cost, Activity::CpuActive);
                    int64_t addr = int64_t(regs[inst.rs1]) + inst.imm;
                    if (addr < 0 || size_t(addr) >= ram_.size())
                        fatal("load address out of RAM");
                    regs[inst.rd] = ram_[size_t(addr)];
                    break;
                  }
                  case Opcode::St: {
                    spend(cost, Activity::CpuActive);
                    int64_t addr = int64_t(regs[inst.rs1]) + inst.imm;
                    if (addr < 0 || size_t(addr) >= ram_.size())
                        fatal("store address out of RAM");
                    ram_[size_t(addr)] = regs[inst.rs2];
                    break;
                  }
                  case Opcode::Sense:
                    spend(cost, Activity::Sense);
                    regs[inst.rd] = inputs_.sense(int(inst.imm));
                    break;
                  case Opcode::RadioTx:
                    spend(cost, Activity::RadioTx);
                    break;
                  case Opcode::RadioRx:
                    spend(cost, Activity::RadioRx);
                    regs[inst.rd] = inputs_.radioRx();
                    break;
                  case Opcode::TimerRead:
                    spend(cost, Activity::CpuActive);
                    regs[inst.rd] = ir::Word(timer_.ticksAt(cycles_));
                    break;
                  case Opcode::Call: {
                    spend(cost, Activity::CpuActive);
                    ir::ProcId callee = ir::ProcId(inst.imm);
                    if (costs.farCallExtra > 0 &&
                        lowered_.procDistance(proc_id, callee) >
                            costs.nearCallWindow) {
                        spend(costs.farCallExtra, Activity::CpuActive);
                        ++result.farCalls;
                    }
                    execProcedure(callee, result, depth + 1);
                    break;
                  }
                }
            }

            result.instructions += bb.insts.size();

            switch (lb.ctrl) {
              case CtrlKind::Ret:
                spend(costs.retOverhead, Activity::CpuActive);
                running = false;
                break;
              case CtrlKind::Fallthrough:
                result.profile[proc_id].addEdge(lb.block, lb.otherTarget);
                pos = pos + 1;
                break;
              case CtrlKind::Jmp:
                spend(costs.jump, Activity::CpuActive);
                ++result.dynamicJumps;
                result.profile[proc_id].addEdge(lb.block, lb.otherTarget);
                pos = placed.positionOf[lb.otherTarget];
                break;
              case CtrlKind::CondBr:
              case CtrlKind::CondBrPlusJmp: {
                spend(costs.branchBase, Activity::CpuActive);
                bool transfer =
                    ir::evalCond(lb.cond, regs[lb.lhs], regs[lb.rhs]);
                bool predicted =
                    sim::predictsTaken(config_.policy, pos,
                                       placed.positionOf[lb.condTarget]);
                bool zeroed = proc_id < config_.zeroCtrlPenalty.size() &&
                              config_.zeroCtrlPenalty[proc_id];
                ++result.branches.executed;
                if (transfer)
                    ++result.branches.taken;
                if (transfer != predicted) {
                    ++result.branches.mispredicted;
                    if (!zeroed)
                        spend(costs.mispredictPenalty, Activity::CpuActive);
                }
                ir::BlockId next_block;
                if (transfer) {
                    next_block = lb.condTarget;
                } else {
                    next_block = lb.otherTarget;
                    if (lb.ctrl == CtrlKind::CondBrPlusJmp) {
                        if (!zeroed)
                            spend(costs.jump, Activity::CpuActive);
                        ++result.dynamicJumps;
                    }
                }
                result.profile[proc_id].addEdge(lb.block, next_block);
                pos = placed.positionOf[next_block];
                break;
              }
            }
        }

        uint64_t body_cycles = cycles_ - body_start;
        result.procCycles[proc_id] += body_cycles;

        if (config_.timingProbes) {
            record.endTick = timer_.ticksAt(cycles_);
            record.trueCycles = body_cycles;
            spend(config_.costs.timerRead, Activity::CpuActive);
            result.trace.add(record);
        }
    }

    const ir::Module &module_;
    sim::LoweredModule lowered_;
    sim::SimConfig config_;
    sim::InputSource &inputs_;
    sim::Timer timer_;
    Rng gapRng_;
    std::vector<ir::Word> ram_;
    uint64_t cycles_ = 0;
};

/** "" when every field of @p a and @p b matches bit for bit, else the
 *  first field that differs. */
std::string
firstDifference(const sim::RunResult &a, const sim::RunResult &b)
{
    if (a.profile.size() != b.profile.size())
        return "profile size";
    for (ir::ProcId proc = 0; proc < a.profile.size(); ++proc) {
        const auto &x = a.profile[proc];
        const auto &y = b.profile[proc];
        if (std::bit_cast<uint64_t>(x.invocations()) !=
            std::bit_cast<uint64_t>(y.invocations()))
            return "profile invocations of proc " + std::to_string(proc);
        if (!std::ranges::equal(
                x.cells(), y.cells(), [](const auto &u, const auto &v) {
                    return u.first == v.first &&
                           std::bit_cast<uint64_t>(u.second) ==
                               std::bit_cast<uint64_t>(v.second);
                }))
            return "profile cells of proc " + std::to_string(proc);
    }
    if (!std::ranges::equal(
            a.trace.records(), b.trace.records(),
            [](const trace::TimingRecord &u, const trace::TimingRecord &v) {
                return u.proc == v.proc && u.invocation == v.invocation &&
                       u.startTick == v.startTick && u.endTick == v.endTick &&
                       u.trueCycles == v.trueCycles;
            }))
        return "trace";
    if (a.totalCycles != b.totalCycles)
        return "totalCycles";
    if (a.branches.executed != b.branches.executed ||
        a.branches.taken != b.branches.taken ||
        a.branches.mispredicted != b.branches.mispredicted)
        return "branches";
    if (a.instructions != b.instructions)
        return "instructions";
    if (a.dynamicJumps != b.dynamicJumps)
        return "dynamicJumps";
    if (a.isrFirings != b.isrFirings)
        return "isrFirings";
    if (a.farCalls != b.farCalls)
        return "farCalls";
    if (a.activity.cycles != b.activity.cycles)
        return "activity";
    if (a.invocations != b.invocations)
        return "invocations";
    if (a.procCycles != b.procCycles)
        return "procCycles";
    if (a.finalRam != b.finalRam)
        return "finalRam";
    return "";
}

/** One random program plus one random machine. */
struct SimCase
{
    uint64_t genSeed = 0;   //!< program structure and inserted ops
    double loopProb = 0.0;
    uint64_t layoutSeed = 0;
    bool micaz = false;     //!< MicaZ costs instead of TelosB
    sim::PredictPolicy policy = sim::PredictPolicy::NotTaken;
    uint64_t cyclesPerTick = 1;
    bool probes = true;
    uint32_t maxGapCycles = 0;
    double isrProb = 0.0;
    uint32_t isrCycles = 30;
    uint32_t farCallExtra = 0;
    uint32_t nearCallWindow = 1;
    uint64_t procOrderSeed = 0;
    uint32_t zeroMask = 0;  //!< bit p zeroes procedure p's penalties
    uint64_t inputSeed = 0;
    uint64_t simSeed = 0;
    size_t invocations[2] = {1, 1}; //!< per run() call
};

SimCase
genSimCase(Rng &rng)
{
    SimCase c;
    c.genSeed = rng.next();
    c.loopProb = rng.bernoulli(0.6) ? 0.3 : 0.0;
    c.layoutSeed = rng.bernoulli(0.3) ? 0 : rng.next();
    c.micaz = rng.bernoulli(0.3);
    c.policy = sim::PredictPolicy(rng.below(3));
    c.cyclesPerTick = uint64_t(rng.range(1, 16));
    c.probes = rng.bernoulli(0.6);
    c.maxGapCycles = rng.bernoulli(0.5) ? 0 : uint32_t(rng.range(1, 200));
    c.isrProb = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.01, 0.3);
    c.isrCycles = uint32_t(rng.range(1, 60));
    c.farCallExtra = rng.bernoulli(0.5) ? 0 : uint32_t(rng.range(1, 8));
    c.nearCallWindow = uint32_t(rng.range(0, 2));
    c.procOrderSeed = rng.next();
    c.zeroMask = rng.bernoulli(0.5) ? 0 : uint32_t(rng.below(16));
    c.inputSeed = rng.next();
    c.simSeed = rng.next();
    for (size_t &n : c.invocations)
        n = size_t(rng.range(1, 120));
    return c;
}

std::string
showSimCase(const SimCase &c)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{genSeed=0x%llx loopProb=%.1f layoutSeed=0x%llx micaz=%d "
        "policy=%s cyclesPerTick=%llu probes=%d maxGapCycles=%u "
        "isrProb=%.17g isrCycles=%u farCallExtra=%u nearCallWindow=%u "
        "procOrderSeed=0x%llx zeroMask=0x%x inputSeed=0x%llx "
        "simSeed=0x%llx invocations=%zu,%zu}",
        (unsigned long long)c.genSeed, c.loopProb,
        (unsigned long long)c.layoutSeed, int(c.micaz),
        sim::policyName(c.policy), (unsigned long long)c.cyclesPerTick,
        int(c.probes), c.maxGapCycles, c.isrProb, c.isrCycles,
        c.farCallExtra, c.nearCallWindow,
        (unsigned long long)c.procOrderSeed, c.zeroMask,
        (unsigned long long)c.inputSeed, (unsigned long long)c.simSeed,
        c.invocations[0], c.invocations[1]);
    return buf;
}

/**
 * A random CFG (check::makeFuzzProgram) that calls a leaf and a
 * two-deep chain, with random device, memory, timer, sleep and
 * multiply instructions inserted into its blocks. The inserted ops
 * write only r7-r9, r12 and r14, which the generated CFG never reads,
 * so every program still terminates; the leaf branches on the parity
 * of a timer read, so control flow depends on exact cycle counts.
 * Without @p timer, a sensor sample replaces the leaf's timer read and
 * a Sense each inserted one, so no instruction reads the timer.
 */
check::FuzzProgram
buildProgram(const SimCase &c, bool timer = true)
{
    using ir::Inst;
    using ir::Opcode;
    Rng rng(c.genSeed);
    check::FuzzConfig config;
    config.loopProb = c.loopProb;
    check::FuzzProgram program = check::makeFuzzProgram(rng, config);
    ir::Module &module = *program.module;

    // The leaf's second branch compares a centred sample, negative half
    // the time, under a random condition, so the unsigned ones differ
    // from the signed ones.
    ir::ProcedureBuilder leaf(module, "leaf");
    auto odd = leaf.newBlock("odd");
    auto even = leaf.newBlock("even");
    auto low = leaf.newBlock("low");
    leaf.setBlock(0);
    leaf.sense(1, 0);
    if (timer)
        leaf.timerRead(4);
    else
        leaf.sense(4, 0);
    leaf.li(5, 1).band(6, 4, 5);
    leaf.br(ir::CondCode::Ne, 6, 0, odd, even);
    leaf.setBlock(odd);
    leaf.mul(3, 1, 5).sleep(3).st(0, 900, 4).li(2, 500).sub(7, 1, 2);
    leaf.li(8, ir::Word(rng.range(-200, 200)));
    leaf.br(ir::CondCode(rng.below(6)), 7, 8, low, even);
    leaf.setBlock(even);
    leaf.radioTx(1).ld(7, 0, 900);
    leaf.ret();
    leaf.setBlock(low);
    leaf.sleep(2);
    leaf.ret();
    const ir::ProcId leaf_id = leaf.finish();

    ir::ProcedureBuilder mid(module, "mid");
    mid.setBlock(0);
    mid.li(3, 7).call("leaf").radioRx(4).st(0, 901, 4).call("leaf");
    mid.ret();
    const ir::ProcId mid_id = mid.finish();

    const std::vector<Inst> menu = {
        {Opcode::TimerRead, 12, 0, 0, 0},
        {Opcode::St, 0, 0, 12, 0},  // address set below
        {Opcode::Sense, 7, 0, 0, 0},
        {Opcode::RadioRx, 8, 0, 0, 0},
        {Opcode::Ld, 9, 0, 0, 0},   // address set below
        {Opcode::Sleep, 0, 0, 0, 0}, // cycles set below
        {Opcode::Mul, 14, 7, 8, 0},
        {Opcode::RadioTx, 0, 8, 0, 0},
        {Opcode::Nop, 0, 0, 0, 0},
        {Opcode::Call, 0, 0, 0, ir::Word(leaf_id)},
        {Opcode::Call, 0, 0, 0, ir::Word(mid_id)},
    };
    for (auto &block : module.procedure(program.entry).blocks()) {
        size_t extra = size_t(rng.range(0, 3));
        for (size_t k = 0; k < extra; ++k) {
            Inst inst = menu[rng.below(menu.size())];
            if (!timer && inst.op == Opcode::TimerRead)
                inst = {Opcode::Sense, 12, 0, 0, 0};
            if (inst.op == Opcode::St || inst.op == Opcode::Ld)
                inst.imm = ir::Word(rng.range(0, 1000));
            if (inst.op == Opcode::Sleep)
                inst.imm = ir::Word(rng.range(0, 20));
            block.insts.insert(
                block.insts.begin() + long(rng.below(block.insts.size() + 1)),
                inst);
        }
    }
    return program;
}

/** @p program's sensor streams plus a radio stream. */
std::unique_ptr<sim::ScriptedInputs>
makeInputs(const check::FuzzProgram &program, uint64_t seed)
{
    auto inputs = program.makeInputs(seed);
    inputs->setRadio(makeUniform(0.0, 1000.0));
    return inputs;
}

/** The machine @p c describes, for a module of @p procs procedures. */
sim::SimConfig
machine(const SimCase &c, size_t procs)
{
    sim::SimConfig config;
    config.costs = c.micaz ? sim::micazCostModel() : sim::telosCostModel();
    config.costs.farCallExtra = c.farCallExtra;
    config.costs.nearCallWindow = c.nearCallWindow;
    config.policy = c.policy;
    config.cyclesPerTick = c.cyclesPerTick;
    config.timingProbes = c.probes;
    config.maxGapCycles = c.maxGapCycles;
    config.isrPerBlockProb = c.isrProb;
    config.isrCycles = c.isrCycles;
    for (ir::ProcId p = 0; p < procs && c.zeroMask >> p; ++p)
        config.zeroCtrlPenalty.push_back((c.zeroMask >> p) & 1);
    return config;
}

/** Place @p lowered's procedures in a random flash order. */
void
permuteProcs(sim::LoweredModule &lowered, uint64_t seed)
{
    std::vector<ir::ProcId> proc_order(lowered.procs.size());
    for (ir::ProcId p = 0; p < proc_order.size(); ++p)
        proc_order[p] = p;
    Rng order_rng(seed);
    for (size_t i = proc_order.size(); i > 1; --i)
        std::swap(proc_order[i - 1], proc_order[order_rng.below(i)]);
    lowered.setProcOrder(proc_order);
}

std::optional<std::string>
checkSimCase(const SimCase &c)
{
    const check::FuzzProgram program = buildProgram(c);
    const ir::Module &module = *program.module;
    const size_t procs = module.procedureCount();

    sim::LoweredModule lowered = sim::lowerModule(module);
    if (c.layoutSeed != 0) {
        Rng rng(c.layoutSeed);
        ir::ModuleProfile no_profile(procs);
        lowered = sim::lowerModule(
            module, layout::computeModuleOrders(
                        module, no_profile, layout::LayoutKind::Random, rng));
    }
    permuteProcs(lowered, c.procOrderSeed);

    const sim::SimConfig config = machine(c, procs);
    auto ref_inputs = makeInputs(program, c.inputSeed);
    auto sim_inputs = makeInputs(program, c.inputSeed);
    ReferenceSimulator reference(module, lowered, config, *ref_inputs,
                                 c.simSeed);
    sim::Simulator simulator(module, lowered, config, *sim_inputs,
                             c.simSeed);
    for (size_t n : c.invocations) {
        auto expected = reference.run(program.entry, n);
        auto actual = simulator.run(program.entry, n);
        auto diff = firstDifference(actual, expected);
        if (!diff.empty())
            return diff + " differs from the per-instruction reference "
                          "after " + std::to_string(n) + " invocations";
    }
    return std::nullopt;
}

/** Several placements of one random program on one deployed machine. */
struct PriceCase
{
    SimCase sim;           //!< program, machine and seeds; probes off
    bool timer = false;    //!< the program reads the timer
    size_t placements = 2;
    size_t procOrdered = 0; //!< the placement in a permuted flash order
    uint64_t placementSeed = 0;
};

PriceCase
genPriceCase(Rng &rng)
{
    PriceCase c;
    c.sim = genSimCase(rng);
    c.sim.probes = false;
    c.timer = rng.bernoulli(0.25);
    c.placements = size_t(rng.range(2, 6));
    c.procOrdered = size_t(rng.below(c.placements));
    c.placementSeed = rng.next();
    return c;
}

std::string
showPriceCase(const PriceCase &c)
{
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  " timer=%d placements=%zu procOrdered=%zu "
                  "placementSeed=0x%llx",
                  int(c.timer), c.placements, c.procOrdered,
                  (unsigned long long)c.placementSeed);
    return showSimCase(c.sim) + buf;
}

std::optional<std::string>
checkPriceCase(const PriceCase &c)
{
    const check::FuzzProgram program = buildProgram(c.sim, c.timer);
    const ir::Module &module = *program.module;
    const sim::SimConfig config = machine(c.sim, module.procedureCount());
    const size_t n = c.sim.invocations[0];

    Rng rng(c.placementSeed);
    ir::ModuleProfile no_profile(module.procedureCount());
    std::vector<std::vector<sim::BlockOrder>> orders;
    std::vector<sim::LoweredModule> placements;
    for (size_t i = 0; i < c.placements; ++i) {
        orders.push_back(layout::computeModuleOrders(
            module, no_profile, layout::LayoutKind::Random, rng));
        placements.push_back(sim::lowerModule(module, orders.back()));
        if (i == c.procOrdered)
            permuteProcs(placements.back(), c.sim.procOrderSeed);
    }

    if (!c.timer) {
        std::vector<sim::RunResult> runs;
        for (const auto &lowered : placements) {
            auto inputs = makeInputs(program, c.sim.inputSeed);
            sim::Simulator simulator(module, lowered, config, *inputs,
                                     c.sim.simSeed);
            runs.push_back(simulator.run(program.entry, n));
            runs.back().procCycles.clear();
        }
        for (size_t i = 0; i < placements.size(); ++i) {
            auto priced =
                sim::Simulator::price(module, placements[i], config, runs[0]);
            auto diff = firstDifference(priced, runs[i]);
            if (!diff.empty())
                return diff + " of placement " + std::to_string(i) +
                       " differs between priced and simulated";
        }
    }

    // The lane prices only a module that cannot read the timer; either
    // way each placement's result is the one it gets alone.
    auto workload = program.workload();
    workload.makeInputs = [&program](uint64_t seed) {
        return makeInputs(program, seed);
    };
    auto lane = workloads::evaluateLane(workload, orders, config,
                                        c.sim.simSeed, n);
    for (size_t i = 0; i < orders.size(); ++i) {
        auto alone = workloads::evaluateLane(workload, {orders[i]}, config,
                                             c.sim.simSeed, n);
        auto diff = firstDifference(lane[i], alone.front());
        if (!diff.empty())
            return diff + " of placement " + std::to_string(i) +
                   " differs between the lane and its own evaluation";
    }
    return std::nullopt;
}

} // namespace

TEST(SimReference, MatchesPerInstructionReferenceBitForBit)
{
    CT_EXPECT_PROP(check::forAll<SimCase>(
        "SimReference.MatchesPerInstructionReferenceBitForBit", genSimCase,
        checkSimCase, nullptr, showSimCase, {.iterations = 300}));
}

TEST(SimPricing, PricedRunsMatchSimulatedBitForBit)
{
    CT_EXPECT_PROP(check::forAll<PriceCase>(
        "SimPricing.PricedRunsMatchSimulatedBitForBit", genPriceCase,
        checkPriceCase, nullptr, showPriceCase, {.iterations = 200}));
}

TEST(SimPricingDeathTest, RefusesTimerReadsAndProbes)
{
    SimCase c;
    c.genSeed = 7;
    auto price = [&](bool timer, bool probes) {
        const check::FuzzProgram program = buildProgram(c, timer);
        const ir::Module &module = *program.module;
        sim::SimConfig config;
        config.timingProbes = probes;
        const auto lowered = sim::lowerModule(module);
        auto inputs = makeInputs(program, 1);
        sim::Simulator simulator(module, lowered, config, *inputs, 2);
        auto run = simulator.run(program.entry, 10);
        sim::Simulator::price(module, lowered, config, run);
    };
    price(false, false);
    EXPECT_DEATH(price(true, false), "TimerRead");
    EXPECT_DEATH(price(false, true), "probed run");
}
