// Activity-driven stepping: the serial and parallel engines step only the
// vertices with mail, a due declared wakeup, or no sleep declared
// (Context::sleep / Context::wake_at). Hints must be a pure optimisation,
// so every run here is compared against engines that ignore them — the
// async engine behind the alpha and beta synchronizers and the in-process
// socket engine step every vertex every round — on every engine-invariant
// observable: the RunStats counters, the per-round traces, the MST edges
// and the trace parity fingerprint. RunStats::activations itself is exact
// across serial and every parallel shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/pipeline_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/obs/trace.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"

namespace dmst {
namespace {

// Everything a run exposes that must not depend on which vertices sleep.
struct Outcome {
    RunStats stats;
    std::vector<EdgeId> edges;  // sorted
    std::string fingerprint;
};

using Driver = std::function<Outcome(const WeightedGraph&, DriverOptions)>;

std::vector<EdgeId> sorted(std::vector<EdgeId> edges)
{
    std::sort(edges.begin(), edges.end());
    return edges;
}

std::vector<EdgeId> forest_edges(const WeightedGraph& g,
                                 const MstForestResult& r)
{
    return sorted(collect_claimed_edges(g, r.mst_ports));
}

Outcome elkin(const WeightedGraph& g, DriverOptions base)
{
    ElkinOptions opts;
    static_cast<DriverOptions&>(opts) = base;
    auto r = run_elkin_mst(g, opts);
    return {r.stats, sorted(r.mst_edges), r.stats.trace->parity_fingerprint()};
}

Outcome controlled_ghs(const WeightedGraph& g, DriverOptions base)
{
    GhsOptions opts;
    static_cast<DriverOptions&>(opts) = base;
    opts.trace = true;
    opts.k = 8;
    auto r = run_controlled_ghs(g, opts);
    return {r.stats, forest_edges(g, r), r.stats.trace->parity_fingerprint()};
}

Outcome pipeline(const WeightedGraph& g, DriverOptions base)
{
    PipelineMstOptions opts;
    static_cast<DriverOptions&>(opts) = base;
    opts.trace = true;
    auto r = run_pipeline_mst(g, opts);
    return {r.stats, sorted(r.mst_edges), r.stats.trace->parity_fingerprint()};
}

Outcome native_ghs(const WeightedGraph& g, DriverOptions base)
{
    GhsNativeOptions opts;
    static_cast<DriverOptions&>(opts) = base;
    opts.trace = true;
    auto r = run_ghs_native(g, opts);
    return {r.stats, forest_edges(g, r), r.stats.trace->parity_fingerprint()};
}

struct NamedDriver {
    const char* name;
    Driver run;
};

const std::vector<NamedDriver>& drivers()
{
    static const std::vector<NamedDriver> all = {
        {"elkin", elkin},
        {"controlled_ghs", controlled_ghs},
        {"pipeline", pipeline},
        {"ghs_native", native_ghs},
    };
    return all;
}

// The async engine may trail a few inert pulse levels (the documented
// endgame skew), so its per-round trace only has to match up to trailing
// zeros.
std::vector<std::uint64_t> trim_zeros(std::vector<std::uint64_t> v)
{
    while (!v.empty() && v.back() == 0)
        v.pop_back();
    return v;
}

// `per_round`: compare the per-round message trace too. It is indexed by
// substrate tick on the lock-step engines, so it only matches the async
// engine's per-level trace when a logical round is one tick.
void expect_same_payload(const Outcome& ref, const Outcome& got,
                         const std::string& where, bool per_round = true)
{
    EXPECT_EQ(got.edges, ref.edges) << where;
    EXPECT_EQ(got.fingerprint, ref.fingerprint) << where;
    EXPECT_EQ(got.stats.messages, ref.stats.messages) << where;
    EXPECT_EQ(got.stats.words, ref.stats.words) << where;
    if (per_round) {
        EXPECT_EQ(trim_zeros(got.stats.messages_per_round),
                  trim_zeros(ref.stats.messages_per_round))
            << where;
    }
}

// The lock-step engines agree on everything, activations included.
void expect_lockstep_identical(const Outcome& ref, const Outcome& got,
                               const std::string& where)
{
    expect_same_payload(ref, got, where);
    EXPECT_EQ(got.stats.rounds, ref.stats.rounds) << where;
    EXPECT_EQ(got.stats.activations, ref.stats.activations) << where;
    EXPECT_EQ(got.stats.messages_per_round, ref.stats.messages_per_round)
        << where;
    EXPECT_EQ(got.stats.arrivals_per_round, ref.stats.arrivals_per_round)
        << where;
    EXPECT_EQ(got.stats.drops, ref.stats.drops) << where;
    EXPECT_EQ(got.stats.retransmissions, ref.stats.retransmissions) << where;
    EXPECT_EQ(got.stats.acks, ref.stats.acks) << where;
    EXPECT_EQ(got.stats.timeouts, ref.stats.timeouts) << where;
    EXPECT_EQ(got.stats.failed_sends, ref.stats.failed_sends) << where;
    EXPECT_EQ(got.stats.crashed_vertices, ref.stats.crashed_vertices) << where;
    EXPECT_EQ(got.stats.stalled, ref.stats.stalled) << where;
}

// Serial against parallel at 1, 2 and 8 shards; returns the serial run.
Outcome check_lockstep(const NamedDriver& d, const WeightedGraph& g,
                       const DriverOptions& base, const std::string& where)
{
    const Outcome serial = d.run(g, base);
    for (int threads : {1, 2, 8}) {
        DriverOptions opts = base;
        opts.engine = Engine::Parallel;
        opts.threads = threads;
        expect_lockstep_identical(
            serial, d.run(g, opts),
            where + " parallel threads=" + std::to_string(threads));
    }
    return serial;
}

class ActivityParity
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(ActivityParity, HintsAreInvisibleOnEveryEngine)
{
    const auto& [family, n] = GetParam();
    const WeightedGraph g = make_workload(family, n, 31);
    const std::vector<EdgeId> mst = sorted(mst_kruskal(g).edges);
    for (const NamedDriver& d : drivers()) {
        const std::string where = std::string(d.name) + " " + family + " n=" +
                                  std::to_string(n);
        const Outcome serial = check_lockstep(d, g, DriverOptions{}, where);
        if (std::string(d.name) == "controlled_ghs") {
            EXPECT_TRUE(std::includes(mst.begin(), mst.end(),
                                      serial.edges.begin(), serial.edges.end()))
                << where;  // a base forest: a subset of the MST
        } else {
            EXPECT_EQ(serial.edges, mst) << where;
        }

        // Engines that step every vertex every round. The async engine is
        // slow on the high-diameter families (each beta pulse waits for a
        // tree wave over the whole graph), so at n = 512 only er runs on
        // it, and beta only on er; test_async_engine sweeps it more widely.
        for (SyncMode sync : {SyncMode::Alpha, SyncMode::Beta}) {
            if (family != "er" && (sync == SyncMode::Beta || n > 64))
                continue;
            DriverOptions opts;
            opts.engine = Engine::Async;
            opts.async.sync = sync;
            expect_same_payload(serial, d.run(g, opts),
                                where + " async " + sync_name(sync));
        }
        DriverOptions sock;
        sock.engine = Engine::Socket;
        const Outcome socket = d.run(g, sock);
        expect_same_payload(serial, socket, where + " socket");
        EXPECT_EQ(socket.stats.rounds, serial.stats.rounds) << where;
        EXPECT_EQ(socket.stats.activations, n * socket.stats.rounds) << where;
        EXPECT_LT(serial.stats.activations, socket.stats.activations) << where;
    }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSizes, ActivityParity,
    ::testing::Combine(::testing::Values("er", "grid", "cliques8"),
                       ::testing::Values(std::size_t{64}, std::size_t{512})),
    [](const auto& info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param));
    });

// Sleeping under the adversarial conditioner: stride-3 rounds, capped
// links and permuted inboxes. The output is substrate-invariant, so the
// ideal serial run is its reference.
TEST(ActivitySubstrate, ConditionedStrideAndAdversarialOrder)
{
    const WeightedGraph g = make_workload("er", 128, 32);
    DriverOptions cond;
    cond.bandwidth = 2;
    cond.conditioner.max_latency = 2;
    cond.conditioner.hetero_bandwidth = true;
    cond.conditioner.adversarial_order = true;
    for (const NamedDriver& d : drivers()) {
        const std::string where = std::string(d.name) + " conditioned";
        DriverOptions ideal;
        ideal.bandwidth = 2;
        const Outcome clean = d.run(g, ideal);
        const Outcome serial = check_lockstep(d, g, cond, where);
        EXPECT_EQ(serial.edges, clean.edges) << where;
    }
}

// Sleeping under the loss shim: a round stretches to the slowest
// retransmission plan. The output matches the clean run, and the async
// engine (which ignores hints) sees the same payload and span table.
TEST(ActivitySubstrate, LossFaults)
{
    const WeightedGraph g = make_workload("grid", 128, 33);
    DriverOptions lossy;
    lossy.faults.drop_rate = 0.1;
    lossy.faults.loss_seed = 12;
    for (const NamedDriver& d : drivers()) {
        const std::string where = std::string(d.name) + " lossy";
        const Outcome serial = check_lockstep(d, g, lossy, where);
        EXPECT_EQ(serial.edges, d.run(g, DriverOptions{}).edges) << where;
        DriverOptions as = lossy;
        as.engine = Engine::Async;
        expect_same_payload(serial, d.run(g, as), where + " async",
                            /*per_round=*/false);
    }
}

// Graceful crash-stop: crashed (and wedged) vertices leave the not-done
// count, and the partial result, the stall verdict and every counter are
// identical across shard counts.
TEST(ActivitySubstrate, GracefulCrashStop)
{
    const WeightedGraph g = make_workload("er", 128, 34);
    DriverOptions crash;
    crash.faults.crashes = {CrashPoint{5, 3}, CrashPoint{40, 30},
                            CrashPoint{77, 200}};
    for (const NamedDriver& d : drivers()) {
        const std::string where = std::string(d.name) + " crash";
        const Outcome serial = check_lockstep(d, g, crash, where);
        EXPECT_GE(serial.stats.crashed_vertices, 3u) << where;
    }
}

// The point of the hints: Elkin mostly waits for its global timetable, so
// it must activate far fewer vertices than n per round.
TEST(Activations, ElkinSleepsThroughTheSchedule)
{
    const WeightedGraph g = make_workload("er", 512, 35);
    const Outcome r = elkin(g, DriverOptions{});
    ASSERT_GT(r.stats.activations, 0u);
    EXPECT_LE(5 * r.stats.activations, 512 * r.stats.rounds)
        << r.stats.activations << " activations over " << r.stats.rounds
        << " rounds";
}

// A driver that never declares a hint keeps today's behaviour: every
// vertex is stepped every round.
TEST(Activations, UnhintedProcessIsSteppedEveryRound)
{
    const WeightedGraph g = make_workload("grid", 64, 36);
    class Countdown : public Process {
    public:
        void on_round(Context& ctx) override { left_ -= ctx.round() <= 10; }
        bool done() const override { return left_ == 0; }

    private:
        int left_ = 10;
    };
    for (Engine engine : {Engine::Serial, Engine::Parallel}) {
        NetConfig config;
        config.engine = engine;
        config.threads = 2;
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<Countdown>(); });
        const RunStats stats = net->run();
        EXPECT_EQ(stats.rounds, 10u);
        EXPECT_EQ(stats.activations, 64u * 10u);
    }
}

// wake_at fires exactly at the declared round, a message wakes a sleeper
// early, and sleepers cost nothing while the network idles.
TEST(Activations, WakeAtAndMessagesWakeSleepers)
{
    const WeightedGraph g = make_workload("path", 4, 37);
    using Log = std::vector<std::vector<std::uint64_t>>;
    // Vertex 0 wakes at round 5 to ping its port-0 neighbor; every vertex
    // then idles until round 20 and is done.
    class Sleeper : public Process {
    public:
        Sleeper(VertexId v, Log& log) : v_(v), log_(log) {}
        void on_round(Context& ctx) override
        {
            log_[v_].push_back(ctx.round());
            if (v_ == 0 && ctx.round() == 5)
                ctx.send(0, Message{1, {}});
            done_ = ctx.round() >= 20;
            if (done_)
                ctx.sleep();
            else
                ctx.wake_at(v_ == 0 && ctx.round() < 5 ? 5 : 20);
        }
        bool done() const override { return done_; }

    private:
        VertexId v_;
        Log& log_;
        bool done_ = false;
    };
    for (Engine engine : {Engine::Serial, Engine::Parallel}) {
        Log log(4);
        NetConfig config;
        config.engine = engine;
        config.threads = 2;
        auto net = make_network(g, config);
        net->init(
            [&](VertexId v) { return std::make_unique<Sleeper>(v, log); });
        const RunStats stats = net->run();
        EXPECT_EQ(stats.rounds, 20u);
        EXPECT_EQ(stats.messages, 1u);
        // Round 1 (everyone), 5 (vertex 0), 6 (the pinged vertex), 20.
        EXPECT_EQ(stats.activations, 10u);
#ifdef NDEBUG
        // Checked builds also probe every sleeper every round.
        const VertexId pinged = g.neighbor(0, 0);
        for (VertexId v = 0; v < 4; ++v) {
            std::vector<std::uint64_t> want = {1};
            if (v == 0)
                want.push_back(5);
            if (v == pinged)
                want.push_back(6);
            want.push_back(20);
            EXPECT_EQ(log[v], want) << "vertex " << v;
        }
#endif
    }
}

}  // namespace
}  // namespace dmst
