/**
 * @file
 * Random-procedure generator for property-based checks (moved here
 * from tests/cfg_fuzz.hh so the ct::check oracles and every test
 * binary share one definition; tests/cfg_fuzz.hh remains as an alias
 * shim).
 *
 * Generates structurally valid, always-terminating procedures: blocks
 * form a fallthrough chain (guaranteeing reachability), conditional
 * branches jump forward to random targets (guaranteeing termination),
 * and every branch condition compares a fresh sensor sample against a
 * random threshold, so branch outcomes are iid with a known analytic
 * probability — the ideal regime for checking the Markov machinery
 * end to end.
 *
 * For expensive whole-stack properties (simulate -> estimate), the
 * generated *value* is a CfgScenario descriptor rather than the
 * program itself: shrinking then operates on the scenario (fewer
 * blocks, fewer invocations), and the program regenerates
 * deterministically from the descriptor — see check/oracles.hh.
 */

#ifndef CT_CHECK_CFG_GEN_HH
#define CT_CHECK_CFG_GEN_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hh"
#include "ir/builder.hh"
#include "sim/devices.hh"
#include "stats/rng.hh"
#include "workloads/workload.hh"

namespace ct::check {

struct FuzzConfig
{
    size_t minBlocks = 4;
    size_t maxBlocks = 9;
    /** Sensor samples are Uniform[0, sensorRange). */
    ir::Word sensorRange = 1000;
    /** Probability that a chain block becomes a counted loop head
     *  (fixed trip count 2..6; always terminates). */
    double loopProb = 0.0;
};

struct FuzzProgram
{
    std::shared_ptr<ir::Module> module;
    ir::ProcId entry = ir::kNoProc;

    const ir::Procedure &proc() const { return module->procedure(entry); }

    /** Inputs matching the generator's sensor model. */
    std::unique_ptr<sim::ScriptedInputs>
    makeInputs(uint64_t seed) const
    {
        auto inputs = std::make_unique<sim::ScriptedInputs>(seed);
        inputs->setChannel(0, makeUniform(0.0, double(sensorRange)));
        return inputs;
    }

    /** The program as a workload, so the campaign lanes
     *  (workloads/campaign.hh) simulate it like any paper program. */
    workloads::Workload
    workload() const
    {
        workloads::Workload out;
        out.name = "fuzz";
        out.module = module;
        out.entry = entry;
        out.makeInputs = [program = *this](uint64_t seed) {
            return program.makeInputs(seed);
        };
        return out;
    }

    ir::Word sensorRange = 1000;
};

/** Generate one random procedure. */
inline FuzzProgram
makeFuzzProgram(Rng &rng, const FuzzConfig &config = {})
{
    FuzzProgram out;
    out.sensorRange = config.sensorRange;
    out.module = std::make_shared<ir::Module>("fuzz");
    ir::ProcedureBuilder b(*out.module, "fuzz_proc");

    size_t n = size_t(rng.range(long(config.minBlocks),
                                long(config.maxBlocks)));
    // Entry (block 0) already exists; add the rest.
    for (size_t i = 1; i < n; ++i)
        b.newBlock();

    for (size_t i = 0; i < n; ++i) {
        b.setBlock(ir::BlockId(i));

        // Random straight-line body: 0-4 cheap instructions.
        size_t body = size_t(rng.range(0, 4));
        for (size_t k = 0; k < body; ++k) {
            switch (rng.range(0, 4)) {
              case 0:
                b.li(3, ir::Word(rng.range(0, 100)));
                break;
              case 1:
                b.addi(4, 4, 1);
                break;
              case 2:
                b.li(5, ir::Word(rng.range(0, 60))).ld(6, 5, 0);
                break;
              case 3:
                b.li(5, ir::Word(rng.range(0, 60))).st(5, 0, 4);
                break;
              case 4:
                b.sleep(ir::Word(rng.range(1, 9)));
                break;
            }
        }

        if (i == n - 1) {
            b.ret();
            continue;
        }

        // Optionally hang a counted loop off this block: a fresh body
        // block (appended past the chain) iterates a fixed trip count
        // via r10/r11 and then falls into the chain successor i+1.
        // Always terminates; exercises back edges in every property.
        if (config.loopProb > 0.0 && rng.bernoulli(config.loopProb)) {
            ir::Word trips = ir::Word(rng.range(2, 6));
            b.li(10, 0).li(11, trips);
            auto body_block = b.newBlock();
            b.jmp(body_block);
            b.setBlock(body_block);
            b.addi(10, 10, 1).addi(4, 4, 1);
            b.br(ir::CondCode::Lt, 10, 11, body_block, ir::BlockId(i + 1));
            continue;
        }

        // Terminator: fallthrough chain to i+1, plus either a jump or a
        // forward conditional branch with an iid random outcome.
        bool use_branch = i + 2 <= n - 1 ? rng.bernoulli(0.7) : false;
        if (use_branch) {
            ir::BlockId taken =
                ir::BlockId(rng.range(long(i) + 2, long(n) - 1));
            ir::Word threshold = ir::Word(
                rng.range(config.sensorRange / 10,
                          config.sensorRange * 9 / 10));
            b.sense(1, 0).li(2, threshold);
            // P(taken) = threshold / sensorRange.
            b.br(ir::CondCode::Lt, 1, 2, taken, ir::BlockId(i + 1));
        } else {
            b.jmp(ir::BlockId(i + 1));
        }
    }

    out.entry = b.finish();
    return out;
}

/**
 * Descriptor for one whole-stack check case: everything needed to
 * regenerate program + inputs deterministically. Shrinking reduces
 * blocks and invocations — the two axes that dominate both case cost
 * and counterexample readability.
 */
struct CfgScenario
{
    uint64_t genSeed = 0;  //!< seeds program structure
    uint64_t simSeed = 0;  //!< seeds inputs / timer jitter
    size_t maxBlocks = 9;
    size_t invocations = 2'000;
    double loopProb = 0.0;

    FuzzProgram
    build() const
    {
        FuzzConfig config;
        config.minBlocks = 4;
        config.maxBlocks = std::max<size_t>(4, maxBlocks);
        config.loopProb = loopProb;
        Rng rng(genSeed);
        return makeFuzzProgram(rng, config);
    }
};

inline CfgScenario
genCfgScenario(Rng &rng, size_t invocations, double loop_prob = 0.0)
{
    CfgScenario s;
    s.genSeed = rng.next();
    s.simSeed = rng.next();
    s.maxBlocks = size_t(rng.range(4, 9));
    s.invocations = invocations;
    s.loopProb = loop_prob;
    return s;
}

inline std::vector<CfgScenario>
shrinkCfgScenario(const CfgScenario &s)
{
    std::vector<CfgScenario> out;
    for (uint64_t blocks : shrinkToward(s.maxBlocks, 4)) {
        CfgScenario c = s;
        c.maxBlocks = size_t(blocks);
        out.push_back(c);
    }
    for (uint64_t inv : shrinkToward(s.invocations, 200)) {
        CfgScenario c = s;
        c.invocations = size_t(inv);
        out.push_back(c);
    }
    if (s.loopProb > 0.0) {
        CfgScenario c = s;
        c.loopProb = 0.0;
        out.push_back(c);
    }
    return out;
}

inline std::string
showCfgScenario(const CfgScenario &s)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{genSeed=0x%llx simSeed=0x%llx maxBlocks=%zu "
                  "invocations=%zu loopProb=%.2f}",
                  (unsigned long long)s.genSeed,
                  (unsigned long long)s.simSeed, s.maxBlocks,
                  s.invocations, s.loopProb);
    return buf;
}

} // namespace ct::check

#endif // CT_CHECK_CFG_GEN_HH
