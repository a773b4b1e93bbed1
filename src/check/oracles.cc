#include "check/oracles.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "api/pipeline.hh"
#include "causal/causal.hh"
#include "check/gen.hh"
#include "fleet/fleet.hh"
#include "ir/verify.hh"
#include "net/collector.hh"
#include "net/packet.hh"
#include "net/uplink.hh"
#include "sim/lower.hh"
#include "sim/machine.hh"
#include "store/format.hh"
#include "store/store.hh"
#include "tomography/streaming.hh"
#include "tomography/timing_model.hh"
#include "trace/wire_format.hh"
#include "util/str.hh"
#include "workloads/campaign.hh"

namespace ct::check {

namespace {

/** Field-by-field bitwise comparison helper for invariance oracles. */
class Differ
{
  public:
    template <typename T>
    void
    eq(const char *name, const T &a, const T &b)
    {
        if (!why_.empty() || a == b)
            return;
        std::ostringstream os;
        os << name << " differs";
        if constexpr (std::is_arithmetic_v<T>)
            os << ": " << a << " vs " << b;
        why_ = os.str();
    }

    void
    eqTheta(const char *name, const std::vector<double> &a,
            const std::vector<double> &b)
    {
        if (!why_.empty())
            return;
        if (a.size() != b.size()) {
            why_ = format("%s length differs: %zu vs %zu", name, a.size(),
                          b.size());
            return;
        }
        for (size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i]) {
                why_ = format("%s[%zu] differs: %.17g vs %.17g", name, i, a[i],
                              b[i]);
                return;
            }
        }
    }

    bool same() const { return why_.empty(); }
    const std::string &why() const { return why_; }

  private:
    std::string why_;
};

void
diffTraces(Differ &d, const char *label, const trace::TimingTrace &a,
           const trace::TimingTrace &b)
{
    if (!d.same())
        return;
    if (a.size() != b.size()) {
        d.eq(label, a.size(), b.size());
        return;
    }
    for (size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.proc != y.proc || x.startTick != y.startTick ||
            x.endTick != y.endTick || x.invocation != y.invocation) {
            d.eq(label,
                 format("record %zu (p%u %lld..%lld #%llu)", i,
                        unsigned(x.proc), (long long)x.startTick,
                        (long long)x.endTick,
                        (unsigned long long)x.invocation),
                 format("record %zu (p%u %lld..%lld #%llu)", i,
                        unsigned(y.proc), (long long)y.startTick,
                        (long long)y.endTick,
                        (unsigned long long)y.invocation));
            return;
        }
    }
}

struct SimulatedScenario
{
    FuzzProgram program;
    sim::SimConfig config;
    sim::LoweredModule lowered;
    sim::RunResult run;
};

SimulatedScenario
simulateScenario(const CfgScenario &scenario)
{
    SimulatedScenario out;
    out.program = scenario.build();
    out.config.cyclesPerTick = 1;
    out.lowered = sim::lowerModule(*out.program.module);
    out.run = workloads::simulateMote(
        out.program.workload(), out.lowered, out.config,
        {.sim = scenario.simSeed ^ 0x5eed, .inputs = scenario.simSeed},
        scenario.invocations);
    return out;
}

} // namespace

std::optional<std::string>
estimatorRoundTripOracle(const CfgScenario &scenario,
                         const RoundTripConfig &config)
{
    auto sim = simulateScenario(scenario);
    if (!ir::verifyModule(*sim.program.module).ok())
        return "generated module failed IR verification";
    const auto &proc = sim.program.proc();
    if (proc.branchBlocks().empty())
        return skipCase();

    auto estimator = tomography::makeEstimator(config.kind, {});
    auto estimate = tomography::estimateModule(
        *sim.program.module, sim.lowered, sim.config.costs, sim.config.policy,
        sim.config.cyclesPerTick, sim::nestedProbeCycles(sim.config.costs),
        sim.run.trace, *estimator);

    // Reward-class aliasing makes some random CFGs fundamentally
    // unidentifiable from boundary timing; the estimator reports that
    // through aliasedMass and such scenarios are outside the premise.
    if (estimate.results[sim.program.entry].aliasedMass >
        config.maxAliasedMass)
        return skipCase();

    std::vector<double> no_callees(size_t(sim.program.entry) + 1, 0.0);
    tomography::TimingModel model(
        proc, sim.lowered.procs[sim.program.entry], sim.config.costs,
        sim.config.policy, sim.config.cyclesPerTick, no_callees,
        sim::nestedProbeCycles(sim.config.costs));
    auto truth =
        sim.run.profile[sim.program.entry].branchProbabilities(proc);
    auto diags = model.branchDiagnostics(truth);

    bool judged = false;
    for (size_t b = 0; b < truth.size(); ++b) {
        if (diags[b].separationTicks < config.minSeparationTicks ||
            diags[b].visitRate < config.minVisitRate)
            continue;
        judged = true;
        double estimated = estimate.thetas[sim.program.entry][b];
        if (std::abs(estimated - truth[b]) > config.tolerance) {
            return format("branch %zu: estimated %.4f vs true %.4f "
                          "(tolerance %.3f, separation %.2f ticks, visit rate "
                          "%.2f) under %s",
                          b, estimated, truth[b], config.tolerance,
                          diags[b].separationTicks, diags[b].visitRate,
                          tomography::estimatorName(config.kind));
        }
    }
    return judged ? std::nullopt : skipCase();
}

std::optional<std::string>
emVsMomentOracle(const CfgScenario &scenario)
{
    auto sim = simulateScenario(scenario);
    const auto &proc = sim.program.proc();
    size_t params = proc.branchBlocks().size();
    // Two sample moments determine at most two parameters; larger
    // procedures are outside moment matching's premise (E8).
    if (params == 0 || params > 2)
        return skipCase();

    auto em = tomography::makeEstimator(tomography::EstimatorKind::Em, {});
    auto moment =
        tomography::makeEstimator(tomography::EstimatorKind::Moment, {});
    auto em_est = tomography::estimateModule(
        *sim.program.module, sim.lowered, sim.config.costs, sim.config.policy,
        sim.config.cyclesPerTick, sim::nestedProbeCycles(sim.config.costs),
        sim.run.trace, *em);
    auto mo_est = tomography::estimateModule(
        *sim.program.module, sim.lowered, sim.config.costs, sim.config.policy,
        sim.config.cyclesPerTick, sim::nestedProbeCycles(sim.config.costs),
        sim.run.trace, *moment);

    if (em_est.results[sim.program.entry].aliasedMass > 0.02)
        return skipCase();

    std::vector<double> no_callees(size_t(sim.program.entry) + 1, 0.0);
    tomography::TimingModel model(
        proc, sim.lowered.procs[sim.program.entry], sim.config.costs,
        sim.config.policy, sim.config.cyclesPerTick, no_callees,
        sim::nestedProbeCycles(sim.config.costs));
    auto truth =
        sim.run.profile[sim.program.entry].branchProbabilities(proc);
    auto diags = model.branchDiagnostics(truth);

    // Moment matching trades the E-step for two sample moments, and on
    // arbitrary random CFGs its inversion is ill-conditioned (the
    // variance term can pull theta off a mean-consistent value), so its
    // bound here is coarser than EM's 0.08 and than its own accuracy on
    // the curated fixtures (test_tomography_estimators: 0.03). The
    // values are empirical, found by running this property at high
    // CT_CHECK_SCALE; tightening them is an open estimator task, not a
    // test knob.
    const double mo_tol = params == 1 ? 0.25 : 0.35;
    const double agree_tol = params == 1 ? 0.30 : 0.40;

    bool judged = false;
    for (size_t b = 0; b < truth.size(); ++b) {
        // Moment matching does not model timer quantization, so the
        // comparison only holds where the arms are clearly separated.
        if (diags[b].separationTicks < 2.0 || diags[b].visitRate < 0.25)
            continue;
        judged = true;
        double em_theta = em_est.thetas[sim.program.entry][b];
        double mo_theta = mo_est.thetas[sim.program.entry][b];
        if (std::abs(em_theta - truth[b]) > 0.08)
            return format("EM off truth on branch %zu: %.4f vs %.4f", b,
                          em_theta, truth[b]);
        if (std::abs(mo_theta - truth[b]) > mo_tol)
            return format("moment off truth on branch %zu: %.4f vs %.4f "
                          "(tolerance %.2f for %zu params)",
                          b, mo_theta, truth[b], mo_tol, params);
        if (std::abs(em_theta - mo_theta) > agree_tol)
            return format("estimators disagree on branch %zu: EM %.4f vs "
                          "moment %.4f (truth %.4f)",
                          b, em_theta, mo_theta, truth[b]);
    }
    return judged ? std::nullopt : skipCase();
}

std::optional<std::string>
wireRoundTripOracle(const trace::TimingTrace &trace)
{
    auto bytes = trace::encodeTrace(trace);
    trace::TimingTrace decoded;
    if (!trace::decodeTrace(bytes, decoded))
        return format("honest %zu-record trace failed to decode",
                      trace.size());
    Differ d;
    diffTraces(d, "round-tripped trace", trace, decoded);
    if (!d.same())
        return d.why();
    if (trace.empty() != bytes.empty())
        return "empty-trace / empty-buffer correspondence violated";
    return std::nullopt;
}

std::optional<std::string>
packetRoundTripOracle(const trace::TimingTrace &trace, uint16_t mote,
                      size_t mtu)
{
    // Packetization premise (net/packet.hh): the per-packet delta
    // restart encodes each packet's first record at its absolute start
    // tick, so traces beyond the wire cap in absolute time are outside
    // the round-trip's domain.
    for (const auto &record : trace.records())
        if (std::llabs(record.startTick) >
            (long long)trace::kMaxWireTicks)
            return skipCase();

    auto packets = net::packetizeTrace(trace, mote, mtu);
    if (trace.empty() && !packets.empty())
        return "empty trace produced packets";

    std::vector<trace::TimingRecord> records;
    size_t on_air = 0;
    for (size_t i = 0; i < packets.size(); ++i) {
        const auto &packet = packets[i];
        if (packet.seq != i)
            return format("packet %zu has sequence %u", i, packet.seq);
        auto frame = net::serializePacket(packet);
        if (frame.size() > mtu)
            return format("packet %zu frame is %zu bytes > MTU %zu", i,
                          frame.size(), mtu);
        on_air += frame.size();
        net::Packet parsed;
        if (!net::parsePacket(frame, parsed))
            return format("packet %zu failed to re-parse", i);
        if (parsed.mote != mote || parsed.seq != packet.seq ||
            parsed.payload != packet.payload)
            return format("packet %zu did not round-trip the header/payload",
                          i);
        // Self-containment: each payload decodes on its own.
        size_t before = records.size();
        if (!net::decodePayload(parsed.payload, records))
            return format("packet %zu payload not self-contained", i);
        if (records.size() == before)
            return format("packet %zu carried zero records", i);
    }
    if (on_air != net::framedTraceBytes(trace, mtu))
        return "framedTraceBytes disagrees with actual frame total";

    if (records.size() != trace.size())
        return format("reassembled %zu records from %zu", records.size(),
                      trace.size());
    for (size_t i = 0; i < records.size(); ++i) {
        const auto &x = trace[i];
        const auto &y = records[i];
        if (x.proc != y.proc || x.startTick != y.startTick ||
            x.endTick != y.endTick)
            return format("record %zu changed across the packet layer", i);
    }
    return std::nullopt;
}

std::optional<std::string>
arqLosslessEquivalenceOracle(const ArqScenario &scenario)
{
    // A real workload so the streaming estimators see model-consistent
    // durations (synthetic traces would all be outliers).
    auto workload = workloads::workloadByName("crc16");
    sim::SimConfig config;
    auto lowered = sim::lowerModule(*workload.module);
    auto run = workloads::simulateMote(
        workload, lowered, config,
        {.sim = scenario.traceSeed ^ 0x5eed, .inputs = scenario.traceSeed},
        scenario.records);
    const trace::TimingTrace &trace = run.trace;

    const double nested_probes = sim::nestedProbeCycles(config.costs);

    // Lossless reference: records straight into an estimator bank.
    net::EstimatorBank reference(*workload.module, lowered, config.costs,
                                 config.policy, config.cyclesPerTick, {},
                                 nested_probes);
    for (const auto &record : trace.records())
        reference.observe(1, record);

    // Lossy path: same records through channel + ARQ + collector.
    net::UplinkConfig uplink;
    uplink.window = 16;
    uplink.maxRetries = 64;
    net::CollectorConfig collector;
    collector.skipAheadPackets = 0;
    net::SinkCollector sink(collector);
    net::EstimatorBank bank(*workload.module, lowered, config.costs,
                            config.policy, config.cyclesPerTick, {},
                            nested_probes);
    sink.setRecordSink(bank.sink());
    auto outcome =
        net::transferTrace(trace, 1, scenario.mtu, scenario.channel, uplink,
                           sink, scenario.channelSeed);
    if (!outcome.complete)
        return skipCase(); // retry budget genuinely exhausted

    Differ d;
    diffTraces(d, "sink trace", trace, sink.traceFor(1));
    d.eq("records delivered", uint64_t(trace.size()),
         sink.recordsDelivered(1));
    d.eq("observations", reference.observations(), bank.observations());
    d.eq("outliers", reference.outliers(), bank.outliers());
    d.eqTheta("theta", reference.theta(1, workload.entry),
              bank.theta(1, workload.entry));
    if (!d.same())
        return "ARQ-complete transfer is distinguishable from lossless: " +
               d.why();
    return std::nullopt;
}

namespace {

/// @name Independent model of the WAL on-disk framing
/// Sizes recomputed from first principles (LEB128 + the documented
/// fixed overheads, docs/STORE.md) rather than by calling the store's
/// own encoders — so a framing bug shifts the predicted crash
/// boundaries and the property fails instead of agreeing with itself.
/// @{

uint64_t
zigzag64(int64_t v)
{
    return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

size_t
varintLen(uint64_t v)
{
    size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

size_t
modelEntryBytes(const trace::TimingRecord &record)
{
    // kind + mote + len + payload + crc, payload = proc varint,
    // zigzag(start) varint (per-entry delta basis 0), duration varint.
    return 7 + varintLen(record.proc) +
           varintLen(zigzag64(record.startTick)) +
           varintLen(uint64_t(record.durationTicks()));
}
/// @}

/** Fresh scratch directory under the system temp root. */
std::string
makeScratchDir(const char *tag)
{
    static std::atomic<uint64_t> counter{0};
    auto dir = std::filesystem::temp_directory_path() /
               format("ct_%s_%d_%llu", tag, int(::getpid()),
                      (unsigned long long)counter.fetch_add(1));
    std::filesystem::remove_all(dir);
    return dir.string();
}

void
flipFileByte(const std::string &path, size_t offset)
{
    auto bytes = store::readFileBytes(path);
    if (!bytes || offset >= bytes->size())
        return;
    (*bytes)[offset] ^= 0x5A;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return;
    std::fwrite(bytes->data(), 1, bytes->size(), f);
    std::fclose(f);
}

} // namespace

std::optional<std::string>
storeCrashRecoveryOracle(const StoreScenario &scenario)
{
    namespace fs = std::filesystem;
    if (scenario.records == 0 || scenario.motes == 0 ||
        scenario.segmentBytes <= store::kSegmentHeaderBytes)
        return skipCase();

    // A real workload so the estimators see model-consistent durations
    // (and the persisted records carry realistic tick magnitudes).
    auto workload = workloads::workloadByName("crc16");
    sim::SimConfig config;
    auto lowered = sim::lowerModule(*workload.module);
    auto run = workloads::simulateMote(
        workload, lowered, config,
        {.sim = scenario.traceSeed ^ 0x570e, .inputs = scenario.traceSeed},
        scenario.records);
    const auto &records = run.trace.records();
    if (records.empty())
        return skipCase();

    const double nested_probes = sim::nestedProbeCycles(config.costs);
    auto make_bank = [&] {
        return net::EstimatorBank(*workload.module, lowered, config.costs,
                                  config.policy, config.cyclesPerTick, {},
                                  nested_probes);
    };
    auto mote_of = [&](size_t i) {
        return uint16_t(1 + i % scenario.motes);
    };

    store::StoreConfig store_config;
    store_config.segmentBytes = scenario.segmentBytes;
    store_config.fsyncEveryRecords = scenario.fsyncEveryRecords;

    const std::string dir = makeScratchDir("prop_store");
    std::vector<uint64_t> coverages; // WAL ordinal of each checkpoint

    // Write phase: persist the campaign, checkpointing on cadence.
    // Closing the store flushes, so the whole stream is durable; the
    // injected crash below decides how much of it "survived".
    {
        store::Store store(dir, store_config);
        auto writer = make_bank();
        for (size_t i = 0; i < records.size(); ++i) {
            store.append(mote_of(i), records[i]);
            writer.observe(mote_of(i), records[i]);
            if (scenario.checkpointEvery != 0 &&
                (i + 1) % scenario.checkpointEvery == 0) {
                store.writeCheckpoint(writer.snapshot());
                coverages.push_back(i + 1);
                // The drift-triggered pattern (checkpointAndCompact):
                // retention pruning + covered-segment deletion run
                // mid-campaign.
                if (scenario.compactAfterCheckpoint)
                    store.compact();
            }
        }
    }

    auto verdict = [&]() -> std::optional<std::string> {
        // Independent layout model: where every entry's bytes landed.
        struct Span
        {
            size_t file;
            size_t begin; //!< global offset across concatenated segments
            size_t end;
        };
        std::vector<Span> spans;
        std::vector<size_t> file_start; // global offset of each segment
        size_t global_base = 0;
        size_t file_bytes = store::kSegmentHeaderBytes;
        file_start.push_back(0);
        spans.reserve(records.size());
        for (const auto &record : records) {
            size_t e = modelEntryBytes(record);
            if (file_bytes + e > scenario.segmentBytes &&
                file_bytes > store::kSegmentHeaderBytes) {
                global_base += file_bytes;
                file_start.push_back(global_base);
                file_bytes = store::kSegmentHeaderBytes;
            }
            spans.push_back({file_start.size() - 1,
                             global_base + file_bytes,
                             global_base + file_bytes + e});
            file_bytes += e;
        }
        const size_t total_bytes = global_base + file_bytes;

        // Compaction model. compact() after a checkpoint retains the
        // kKeepCheckpoints newest checkpoints and deletes sealed
        // segments fully covered by the *oldest retained* one.
        // Coverage and the active segment only grow across the
        // campaign, so the final compaction dominates: the deleted
        // files are exactly the prefix of segments sealed by the last
        // checkpoint whose records all lie below its oldest-retained
        // coverage. Records are appended in ordinal order, so the
        // deleted set is a file prefix and deleted_records its length.
        size_t deleted_files = 0;
        size_t deleted_records = 0;
        if (scenario.compactAfterCheckpoint && !coverages.empty()) {
            std::vector<size_t> last_index(file_start.size(), 0);
            for (size_t i = 0; i < spans.size(); ++i)
                last_index[spans[i].file] = i;
            const size_t keep = store::kKeepCheckpoints;
            const size_t k = coverages.size();
            const uint64_t safe = coverages[k > keep ? k - keep : 0];
            const size_t active_file = spans[coverages.back() - 1].file;
            while (deleted_files < active_file &&
                   uint64_t(last_index[deleted_files]) < safe) {
                deleted_records = last_index[deleted_files] + 1;
                ++deleted_files;
            }
        }
        const size_t deleted_bytes = file_start[deleted_files];

        // The model must agree with the disk before any crash goes in.
        std::vector<std::string> seg_paths;
        size_t disk_bytes = 0;
        std::error_code ec;
        for (uint64_t id : store::listSegmentIds(dir)) {
            auto p = fs::path(dir) / store::segmentFileName(id);
            seg_paths.push_back(p.string());
            disk_bytes += size_t(fs::file_size(p, ec));
        }
        if (seg_paths.size() != file_start.size() - deleted_files)
            return format("framing model predicts %zu segments, disk has %zu",
                          file_start.size() - deleted_files,
                          seg_paths.size());
        if (disk_bytes != total_bytes - deleted_bytes)
            return format("framing model predicts %zu WAL bytes, disk has %zu",
                          total_bytes - deleted_bytes, disk_bytes);

        // Crash injection + the model's surviving-prefix prediction.
        // Offsets range over the *surviving* byte stream (compaction
        // already removed the deleted file prefix); seg_paths holds
        // surviving files only, so disk paths index at
        // file - deleted_files.
        size_t surviving = records.size();
        uint64_t expect_discarded = 0;
        if (scenario.crash == StoreCrash::TruncateTail ||
            scenario.crash == StoreCrash::CorruptByte) {
            const size_t surv_bytes = total_bytes - deleted_bytes;
            size_t c =
                deleted_bytes +
                std::min(size_t(scenario.crashFraction *
                                double(surv_bytes)),
                         surv_bytes - 1);
            size_t file = file_start.size() - 1;
            while (file_start[file] > c)
                --file;
            size_t local = c - file_start[file];

            if (scenario.crash == StoreCrash::TruncateTail) {
                // A crash ends the byte stream at c: the segment under
                // the pen is torn, later segments never existed.
                fs::resize_file(seg_paths[file - deleted_files], local,
                                ec);
                for (size_t f = file + 1; f < file_start.size(); ++f)
                    fs::remove(seg_paths[f - deleted_files], ec);
                surviving = 0;
                for (const auto &span : spans)
                    surviving += span.end <= c ? 1 : 0;
            } else {
                flipFileByte(seg_paths[file - deleted_files], local);
                // Prefix rule: everything from the damaged byte's
                // entry (or, for a damaged header, segment) onward is
                // outside the durable prefix.
                surviving = 0;
                if (local < store::kSegmentHeaderBytes) {
                    for (const auto &span : spans)
                        surviving += span.file < file ? 1 : 0;
                } else {
                    for (size_t i = 0; i < spans.size(); ++i) {
                        if (spans[i].begin <= c && c < spans[i].end) {
                            surviving = i;
                            break;
                        }
                    }
                }
            }
        } else if (scenario.crash == StoreCrash::CorruptCheckpoint) {
            // Compaction deleted the segments the single retained
            // checkpoint covers; damaging it then loses data no
            // recovery can get back (genuine media damage, outside
            // the crash-safety contract).
            if (scenario.compactAfterCheckpoint && coverages.size() < 2)
                return skipCase();
            auto ckpt_ids = store::listCheckpointIds(dir);
            if (!ckpt_ids.empty()) {
                auto p = fs::path(dir) /
                         store::checkpointFileName(ckpt_ids.back());
                size_t size = size_t(fs::file_size(p, ec));
                flipFileByte(p.string(),
                             std::min(size_t(scenario.crashFraction *
                                             double(size)),
                                      size - 1));
                expect_discarded = 1;
                coverages.pop_back(); // recovery must fall back
            }
        }
        const uint64_t covered = coverages.empty() ? 0 : coverages.back();
        const uint64_t expected =
            std::max<uint64_t>(surviving, covered);

        // fsck is read-only and must classify the damage sanely.
        auto report = store::fsckStore(dir);
        if (scenario.crash == StoreCrash::None) {
            // Compaction leaves only the uncovered suffix on disk.
            if (!report.ok ||
                report.records != records.size() - deleted_records)
                return "fsck misjudges a cleanly closed store:\n" +
                       report.text();
        }
        if (scenario.crash == StoreCrash::TruncateTail && !report.ok)
            return "fsck flags a pure crash artifact as data loss:\n" +
                   report.text();

        // Recovery: reopen, rebuild a bank, compare against a
        // from-scratch replay of the predicted durable prefix.
        store::Store reopened(dir, store_config);
        auto recovered = make_bank();
        net::resumeBank(reopened, recovered);

        auto expected_bank = make_bank();
        for (size_t i = 0; i < expected; ++i)
            expected_bank.observe(mote_of(i), records[i]);

        if (reopened.nextOrdinal() != expected)
            return format("recovered nextOrdinal %llu != expected prefix %llu "
                          "(wal prefix %zu, checkpoint coverage %llu)",
                          (unsigned long long)reopened.nextOrdinal(),
                          (unsigned long long)expected, surviving,
                          (unsigned long long)covered);
        if (reopened.stats().checkpointsDiscarded != expect_discarded)
            return format("recovery discarded %llu checkpoints, expected %llu",
                          (unsigned long long)
                              reopened.stats().checkpointsDiscarded,
                          (unsigned long long)expect_discarded);

        auto want = expected_bank.snapshot();
        auto got = recovered.snapshot();
        if (want.size() != got.size())
            return format("recovered bank has %zu estimator slots, prefix "
                          "replay has %zu",
                          got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            if (!(want[i] == got[i]))
                return format("slot %zu (mote %u, proc %u) diverges from the "
                              "prefix replay (count %llu vs %llu)",
                              i, unsigned(want[i].mote),
                              unsigned(want[i].proc),
                              (unsigned long long)want[i].state.count,
                              (unsigned long long)got[i].state.count);
        }
        return std::nullopt;
    }();

    std::error_code cleanup_ec;
    fs::remove_all(dir, cleanup_ec);
    return verdict;
}

std::vector<ArqScenario>
shrinkArqScenario(const ArqScenario &s)
{
    std::vector<ArqScenario> out;
    for (uint64_t records : shrinkToward(s.records, 4)) {
        ArqScenario c = s;
        c.records = size_t(records);
        out.push_back(c);
    }
    // Disable one fault class at a time: pins the blame.
    if (s.channel.dropRate > 0.0 || s.channel.burstLoss) {
        ArqScenario c = s;
        c.channel.dropRate = 0.0;
        c.channel.burstLoss = false;
        out.push_back(c);
    }
    if (s.channel.duplicateRate > 0.0) {
        ArqScenario c = s;
        c.channel.duplicateRate = 0.0;
        out.push_back(c);
    }
    if (s.channel.reorderWindow > 0) {
        ArqScenario c = s;
        c.channel.reorderWindow = 0;
        out.push_back(c);
    }
    if (s.channel.bitFlipRate > 0.0) {
        ArqScenario c = s;
        c.channel.bitFlipRate = 0.0;
        out.push_back(c);
    }
    if (s.channel.ackDropRate > 0.0) {
        ArqScenario c = s;
        c.channel.ackDropRate = 0.0;
        out.push_back(c);
    }
    return out;
}

std::string
showArqScenario(const ArqScenario &s)
{
    return format("{traceSeed=0x%llx channelSeed=0x%llx records=%zu mtu=%zu "
                  "drop=%.2f dup=%.2f reorder=%zu flip=%.2f burst=%d "
                  "ackDrop=%.2f}",
                  (unsigned long long)s.traceSeed,
                  (unsigned long long)s.channelSeed, s.records, s.mtu,
                  s.channel.dropRate, s.channel.duplicateRate,
                  s.channel.reorderWindow, s.channel.bitFlipRate,
                  int(s.channel.burstLoss), s.channel.ackDropRate);
}

namespace {

/**
 * Shared core of the causal differential oracles: one baseline run, one
 * counterfactual re-simulation per invoked procedure, exact agreement
 * with the analytic engine demanded throughout. Probes and interrupts
 * are off (the analytic model prices neither), and no workload reads
 * the timer, so identical input seeds replay identical control flow in
 * every counterfactual — the agreement is an identity, not an estimate.
 */
std::optional<std::string>
causalAgreementCore(const workloads::Workload &workload,
                    const workloads::MoteSeeds &seeds, size_t invocations)
{
    const ir::Module &module = *workload.module;
    const ir::ProcId entry = workload.entry;
    sim::SimConfig cfg;
    cfg.timingProbes = false;
    auto lowered = sim::lowerModule(module);

    auto run_with = [&](std::vector<uint8_t> zero) {
        sim::SimConfig c = cfg;
        c.zeroCtrlPenalty = std::move(zero);
        return workloads::simulateMote(workload, lowered, c, seeds,
                                       invocations);
    };

    auto base = run_with({});
    if (base.invocations[entry] == 0)
        return skipCase();
    const double events = double(base.invocations[entry]);

    auto theta = causal::thetaFromProfile(module, base.profile);
    causal::Engine engine(module, lowered, cfg.costs, cfg.policy, entry,
                          std::move(theta));

    double empirical = double(base.procCycles[entry]) / events;
    double analytic = engine.baselineCyclesPerEvent();
    double tol = 1e-6 * std::max(1.0, empirical);
    if (std::abs(analytic - empirical) > tol) {
        return format("baseline identity: analytic %.9g vs simulated %.9g "
                      "cycles/event",
                      analytic, empirical);
    }

    for (ir::ProcId p = 0; p < module.procedureCount(); ++p) {
        if (base.invocations[p] == 0)
            continue;
        std::vector<uint8_t> zero(module.procedureCount(), 0);
        zero[p] = 1;
        auto counter = run_with(std::move(zero));
        if (counter.branches.executed != base.branches.executed ||
            counter.instructions != base.instructions) {
            return format("proc '%s': counterfactual run diverged from "
                          "baseline control flow",
                          module.procedure(p).name().c_str());
        }
        double zeroed = double(counter.procCycles[entry]) / events;
        double sim_delta = empirical - zeroed;
        double ana_delta = analytic - engine.whatIf(p, 1.0);
        if (std::abs(sim_delta - ana_delta) > tol) {
            return format("proc '%s': analytic whatIf(1.0) delta %.9g vs "
                          "re-simulated %.9g cycles/event",
                          module.procedure(p).name().c_str(), ana_delta,
                          sim_delta);
        }
        double half_delta = analytic - engine.whatIf(p, 0.5);
        if (std::abs(half_delta - 0.5 * ana_delta) > tol) {
            return format("proc '%s': dial not linear: whatIf(0.5) recovers "
                          "%.9g, expected %.9g",
                          module.procedure(p).name().c_str(), half_delta,
                          0.5 * ana_delta);
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<std::string>
causalResimulationOracle(const CfgScenario &scenario)
{
    auto program = scenario.build();
    if (!ir::verifyModule(*program.module).ok())
        return "generated module failed IR verification";
    return causalAgreementCore(
        program.workload(),
        {.sim = scenario.simSeed ^ 0x5eed, .inputs = scenario.simSeed},
        scenario.invocations);
}

std::optional<std::string>
causalWorkloadResimulationOracle(const std::string &workload_name,
                                 uint64_t seed, size_t invocations)
{
    return causalAgreementCore(workloads::workloadByName(workload_name),
                               {.sim = seed ^ 0x636175, .inputs = seed},
                               invocations);
}

std::optional<std::string>
pipelineJobsInvarianceOracle(const std::string &workload_name, uint64_t seed,
                             size_t measure_invocations,
                             size_t eval_invocations, size_t jobs)
{
    api::PipelineConfig config;
    config.seed = seed;
    config.measureInvocations = measure_invocations;
    config.evalInvocations = eval_invocations;

    config.jobs = 1;
    api::TomographyPipeline serial(workloads::workloadByName(workload_name),
                                   config);
    auto a = serial.run();
    config.jobs = jobs;
    api::TomographyPipeline parallel(
        workloads::workloadByName(workload_name), config);
    auto b = parallel.run();

    Differ d;
    d.eqTheta("estimatedTheta", a.estimatedTheta, b.estimatedTheta);
    d.eqTheta("trueTheta", a.trueTheta, b.trueTheta);
    d.eq("branchMae", a.branchMae, b.branchMae);
    d.eq("branchMaxError", a.branchMaxError, b.branchMaxError);
    d.eq("measure totalCycles", a.measureRun.totalCycles,
         b.measureRun.totalCycles);
    diffTraces(d, "measure trace", a.measureRun.trace, b.measureRun.trace);
    d.eq("outcome count", a.outcomes.size(), b.outcomes.size());
    if (d.same()) {
        for (size_t i = 0; i < a.outcomes.size(); ++i) {
            const auto &x = a.outcomes[i];
            const auto &y = b.outcomes[i];
            d.eq("outcome name", x.name, y.name);
            d.eq((x.name + " totalCycles").c_str(), x.totalCycles,
                 y.totalCycles);
            d.eq((x.name + " mispredicted").c_str(), x.mispredicted,
                 y.mispredicted);
            d.eq((x.name + " branchesExecuted").c_str(), x.branchesExecuted,
                 y.branchesExecuted);
            d.eq((x.name + " mispredictRate").c_str(), x.mispredictRate,
                 y.mispredictRate);
            d.eq((x.name + " energy").c_str(), x.energyMicrojoules,
                 y.energyMicrojoules);
        }
    }
    if (!d.same())
        return format("jobs=1 vs jobs=%zu on '%s': ", jobs,
                      workload_name.c_str()) +
               d.why();
    return std::nullopt;
}

std::optional<std::string>
fleetJobsInvarianceOracle(const std::string &workload_name, uint64_t seed,
                          size_t motes, size_t invocations,
                          const net::ChannelConfig &channel, size_t jobs)
{
    fleet::ShardedFleetConfig config;
    config.motes = motes;
    config.invocations = invocations;
    config.seed = seed;
    config.channel = channel;

    auto workload = workloads::workloadByName(workload_name);
    config.jobs = 1;
    config.collector.shards = 1;
    auto a = fleet::runShardedFleet(workload, config);
    config.jobs = jobs;
    config.collector.shards = jobs;
    auto b = fleet::runShardedFleet(workload, config);

    Differ d;
    d.eq("mergedDigest", a.mergedDigest, b.mergedDigest);
    d.eq("totalFrames", a.totalFrames, b.totalFrames);
    d.eq("totalRecords", a.totalRecords, b.totalRecords);
    d.eq("mote count", a.motes.size(), b.motes.size());
    if (d.same()) {
        for (size_t i = 0; i < a.motes.size(); ++i) {
            const auto &x = a.motes[i];
            const auto &y = b.motes[i];
            d.eq("mote id", x.mote, y.mote);
            d.eq("recordsSent", x.recordsSent, y.recordsSent);
            d.eq("recordsDelivered", x.recordsDelivered,
                 y.recordsDelivered);
            const auto &xt = x.transfer, &yt = y.transfer;
            d.eq("packets", xt.packets, yt.packets);
            d.eq("complete", xt.complete, yt.complete);
            d.eq("rounds", xt.rounds, yt.rounds);
            d.eq("channel.dropped", xt.channel.dropped, yt.channel.dropped);
            d.eq("channel.delivered", xt.channel.delivered,
                 yt.channel.delivered);
            d.eq("uplink.transmissions", xt.uplink.transmissions,
                 yt.uplink.transmissions);
            d.eqTheta("sinkTheta", x.sinkTheta, y.sinkTheta);
            d.eqTheta("trueTheta", x.trueTheta, y.trueTheta);
            d.eq("maxThetaError", x.maxThetaError, y.maxThetaError);
            if (!d.same())
                break;
        }
    }
    if (!d.same())
        return format("fleet 1 shard at jobs=1 vs %zu shards at jobs=%zu on "
                      "'%s': ",
                      jobs, jobs, workload_name.c_str()) +
               d.why();
    return std::nullopt;
}

} // namespace ct::check
