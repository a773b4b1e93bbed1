#include "probes.hh"

#include <algorithm>
#include <filesystem>

#include "api/pipeline.hh"
#include "fleet/fleet.hh"
#include "layout/placement.hh"
#include "net/collector.hh"
#include "net/packet.hh"
#include "sim/lower.hh"
#include "spans.hh"
#include "stats/rng.hh"
#include "store/store.hh"

namespace fs = std::filesystem;

namespace ct::bench {

namespace {

double
msSince(int64_t start)
{
    return double(nowNs() - start) / 1e6;
}

/** Motes whose records the store probe appends (one fsync each). */
constexpr size_t kStoreProbeMotes = 256;

} // namespace

StageCosts
probeStages(
    const std::vector<std::pair<workloads::Workload, uint64_t>> &programs)
{
    StageCosts out;
    double natural = 0.0, tomography = 0.0;
    double natural_energy = 0.0, tomography_energy = 0.0;
    uint64_t mispredicted = 0, branches = 0;
    double simulated_invocations = 0.0, simulated_ms = 0.0;

    for (const auto &[program, seed] : programs) {
        api::PipelineConfig config;
        config.seed = seed;
        config.jobs = 1;
        api::TomographyPipeline pipeline(program, config);
        uint64_t op = out.runs++;
        // Untimed: the first run after the workload's own reps pays for
        // cold caches and allocator growth, which no stage owns.
        pipeline.run();

        int64_t start = nowNs();
        sim::RunResult run;
        {
            ScopedSpan span("probe.sim.measure", op);
            run = pipeline.measure();
        }
        double measure_ms = msSince(start);
        out.measureMs += measure_ms;

        start = nowNs();
        tomography::ModuleEstimate estimate;
        {
            ScopedSpan span("probe.tomography.estimate", op);
            estimate = pipeline.estimate(run.trace);
        }
        out.estimateMs += msSince(start);
        for (const auto &result : estimate.results)
            out.emIterations += double(result.iterations);

        start = nowNs();
        std::vector<std::pair<const char *, std::vector<sim::BlockOrder>>>
            candidates;
        {
            ScopedSpan span("probe.layout.optimize", op);
            candidates.emplace_back("tomography",
                                    pipeline.optimize(estimate.profile));
        }
        out.optimizeMs += msSince(start);

        start = nowNs();
        {
            ScopedSpan span("probe.layout.orders", op);
            Rng rng(seed);
            const auto &module = *program.module;
            for (auto [name, kind] :
                 {std::pair{"natural", layout::LayoutKind::Natural},
                  std::pair{"random", layout::LayoutKind::Random},
                  std::pair{"dfs", layout::LayoutKind::Dfs},
                  std::pair{"perfect", layout::LayoutKind::ProfileGuided}})
                candidates.emplace_back(
                    name, layout::computeModuleOrders(module, run.profile,
                                                      kind, rng));
        }
        out.ordersMs += msSince(start);

        start = nowNs();
        for (const auto &[name, orders] : candidates) {
            ScopedSpan span("probe.sim.evaluate", op);
            pipeline.evaluate(name, orders);
        }
        double evaluate_ms = msSince(start);
        out.evaluateMs += evaluate_ms;
        simulated_ms += measure_ms + evaluate_ms;
        simulated_invocations +=
            double(config.measureInvocations +
                   candidates.size() * config.evalInvocations);

        start = nowNs();
        api::PipelineResult result;
        {
            ScopedSpan span("probe.api.run_jobs1", op);
            result = pipeline.run();
        }
        out.runJobs1Ms += msSince(start);

        config.jobs = 4;
        start = nowNs();
        {
            ScopedSpan span("probe.api.run_jobs4", op);
            api::TomographyPipeline(program, config).run();
        }
        out.runJobs4Ms += msSince(start);

        natural += double(result.outcome("natural").totalCycles);
        tomography += double(result.outcome("tomography").totalCycles);
        natural_energy += result.outcome("natural").energyMicrojoules;
        tomography_energy += result.outcome("tomography").energyMicrojoules;
        mispredicted += result.outcome("tomography").mispredicted;
        branches += result.outcome("tomography").branchesExecuted;
        out.branchMae += result.branchMae;
    }

    double runs = double(std::max<size_t>(out.runs, 1));
    for (double *value : {&out.measureMs, &out.estimateMs, &out.optimizeMs,
                          &out.ordersMs, &out.evaluateMs, &out.runJobs1Ms,
                          &out.runJobs4Ms, &out.emIterations, &out.branchMae})
        *value /= runs;
    out.invocationsPerS =
        simulated_ms > 0.0 ? simulated_invocations / simulated_ms * 1e3 : 0.0;
    out.cyclesSavedPct =
        natural > 0.0 ? 100.0 * (natural - tomography) / natural : 0.0;
    out.energySavedPct =
        natural_energy > 0.0
            ? 100.0 * (natural_energy - tomography_energy) / natural_energy
            : 0.0;
    out.mispredictRate = branches ? double(mispredicted) / double(branches)
                                  : 0.0;
    return out;
}

SinkCosts
probeSink(const std::vector<Traffic> &traffic, const std::string &scratch)
{
    SinkCosts out;
    double parse_ns = 0.0, collect_ns = 0.0, observe_ns = 0.0;
    double serial_ns = 0.0;
    double offer_ns = 0.0, evict_ns = 0.0;
    double append_ns = 0.0, flush_ns = 0.0;
    const std::string store_dir = (fs::path(scratch) / "probe-store").string();

    net::CollectorConfig collector_config;
    collector_config.retainTraces = false;

    for (const Traffic &t : traffic) {
        const FrameSet &frames = t.frames;
        auto lowered = sim::lowerModule(*t.program.module);
        auto offer_mote = [&](auto &sink, const FrameSet::Mote &mote) {
            for (uint32_t f = 0; f < mote.count; ++f)
                sink.offer(frames.frame(mote.first + f),
                           frames.frames[mote.first + f].second);
        };

        // What the sink delivers, per mote, untimed: the input of the
        // observe and store probes.
        std::vector<std::pair<uint16_t, trace::TimingRecord>> delivered;
        std::vector<size_t> mote_end;
        {
            net::SinkCollector sink(collector_config);
            sink.setRecordSink(
                [&](uint16_t mote, const trace::TimingRecord &record) {
                    delivered.emplace_back(mote, record);
                });
            for (const auto &mote : frames.motes) {
                offer_mote(sink, mote);
                sink.evictMote(mote.wire);
                mote_end.push_back(delivered.size());
            }
        }
        out.motes += frames.motes.size();
        out.frames += frames.frames.size();
        out.records += delivered.size();

        {
            ScopedSpan span("probe.net.parse");
            net::Packet packet;
            int64_t start = nowNs();
            for (size_t f = 0; f < frames.frames.size(); ++f)
                net::parsePacket(frames.frame(f), frames.frames[f].second,
                                 packet);
            parse_ns += double(nowNs() - start);
        }

        {
            ScopedSpan span("probe.net.collect");
            net::SinkCollector sink(collector_config);
            int64_t start = nowNs();
            for (const auto &mote : frames.motes) {
                offer_mote(sink, mote);
                sink.evictMote(mote.wire);
            }
            collect_ns += double(nowNs() - start);
            const auto &stats = sink.stats();
            out.offered += stats.framesOffered;
            out.accepted += stats.accepted;
            out.rejected += stats.rejected;
            out.duplicates += stats.duplicates;
            out.skipped += stats.skippedPackets;
        }

        {
            ScopedSpan span("probe.tomography.observe");
            auto bank = makeBank(t.program, lowered, t.sim);
            int64_t start = nowNs();
            for (const auto &[mote, record] : delivered)
                bank.observe(mote, record);
            observe_ns += double(nowNs() - start);
        }

        // The op as the workload runs it, on one thread: first with no
        // per-call clock reads (the ledger's serial cost), then timing
        // each mote's offers and its eviction.
        for (bool per_call : {false, true}) {
            ScopedSpan span(per_call ? "probe.fleet.per_call"
                                     : "probe.fleet.serial");
            auto sharded = makeFleet(t.program, lowered, t.sim, 4);
            int64_t start = nowNs();
            for (const auto &mote : frames.motes) {
                if (!per_call) {
                    offer_mote(*sharded, mote);
                    sharded->evictMote(mote.wire);
                    continue;
                }
                int64_t t0 = nowNs();
                offer_mote(*sharded, mote);
                int64_t t1 = nowNs();
                sharded->evictMote(mote.wire);
                offer_ns += double(t1 - t0);
                evict_ns += double(nowNs() - t1);
            }
            if (!per_call)
                serial_ns += double(nowNs() - start);
        }

        // Store: append each mote's records and flush once per mote, as
        // SinkCollector::finalize does; then open the result cold and
        // replay it into a fresh bank.
        fs::remove_all(store_dir);
        {
            store::StoreConfig config;
            config.fsyncEveryRecords = kFsyncEveryRecords;
            store::Store store(store_dir, config);
            size_t begin = 0;
            size_t motes = std::min(kStoreProbeMotes, mote_end.size());
            for (size_t m = 0; m < motes; ++m) {
                int64_t start = nowNs();
                {
                    ScopedSpan span("probe.store.append", m);
                    for (size_t r = begin; r < mote_end[m]; ++r)
                        store.append(delivered[r].first,
                                     delivered[r].second);
                }
                int64_t mid = nowNs();
                {
                    ScopedSpan span("probe.store.flush", m);
                    store.flush();
                }
                append_ns += double(mid - start);
                flush_ns += double(nowNs() - mid);
                begin = mote_end[m];
            }
            out.storeMotes += motes;
            out.storeRecords += begin;
            out.fsyncs += store.stats().fsyncs;
        }
        {
            int64_t start = nowNs();
            std::unique_ptr<store::Store> store;
            {
                ScopedSpan span("probe.store.open");
                store = std::make_unique<store::Store>(store_dir);
            }
            out.openMs += msSince(start);
            start = nowNs();
            auto bank = makeBank(t.program, lowered, t.sim);
            {
                ScopedSpan span("probe.net.resume_bank");
                net::resumeBank(*store, bank);
            }
            out.replayMs += msSince(start);
        }
        fs::remove_all(store_dir);
    }

    auto per = [](double total, uint64_t count) {
        return count ? total / double(count) : 0.0;
    };
    out.parseNsPerFrame = per(parse_ns, out.frames);
    out.collectNsPerFrame = per(collect_ns, out.frames);
    out.observeNsPerRecord = per(observe_ns, out.records);
    out.serialNsPerRecord = per(serial_ns, out.records);
    out.fleetOfferNsPerFrame = per(offer_ns, out.frames);
    out.fleetEvictUsPerMote = per(evict_ns, out.motes) / 1e3;
    out.appendNsPerRecord = per(append_ns, out.storeRecords);
    out.flushUsPerCall = per(flush_ns, out.storeMotes) / 1e3;
    return out;
}

double
Ledger::remainderNsPerOp() const
{
    double sum = 0.0;
    for (const auto &row : layers)
        sum += row.nsPerOp;
    return serialNsPerOp - sum;
}

Ledger
buildLedger(Path path, const StageCosts &stages, const SinkCosts &sink)
{
    Ledger ledger;
    if (path == Path::Pipeline) {
        ledger.op = "pipeline run at jobs=1";
        ledger.serialNsPerOp = stages.runJobs1Ms * 1e6;
        ledger.layers = {
            {"sim.measure", stages.measureMs * 1e6},
            {"tomography.estimate", stages.estimateMs * 1e6},
            {"layout.optimize + candidate orders",
             (stages.optimizeMs + stages.ordersMs) * 1e6},
            {"sim.evaluate (5 placements)", stages.evaluateMs * 1e6},
        };
        return ledger;
    }

    auto per_record = [&](double total) {
        return sink.records ? total / double(sink.records) : 0.0;
    };
    if (path == Path::Recovery) {
        double records = double(std::max<uint64_t>(sink.storeRecords, 1));
        ledger.op = "recovered record";
        ledger.serialNsPerOp = (sink.openMs + sink.replayMs) * 1e6 / records;
        ledger.layers = {
            {"store.open (WAL scan and decode)", sink.openMs * 1e6 / records},
            {"tomography.observe", sink.observeNsPerRecord},
        };
        return ledger;
    }

    ledger.op = "delivered record, one thread";
    ledger.serialNsPerOp = sink.serialNsPerRecord;
    double frames = double(sink.frames);
    ledger.layers = {
        {"net.parse", per_record(sink.parseNsPerFrame * frames)},
        {"net.collect (self: dedupe, reorder, decode, evict)",
         per_record((sink.collectNsPerFrame - sink.parseNsPerFrame) * frames)},
        {"tomography.observe", sink.observeNsPerRecord},
    };
    return ledger;
}

} // namespace ct::bench
