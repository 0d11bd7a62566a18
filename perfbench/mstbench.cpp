// Time-to-verified-MST benchmark driver. It generates one workload graph
// from a seed, then repeatedly runs the paper's algorithm, the in-model
// verifier on its output and the four baselines through the library's
// public entry points, checks every output against the Kruskal oracle and
// prints the metrics as JSON. Everything is timed from outside the
// library; see README.md for the metric table and run.py for the command.
//
//   mstbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--inject-mismatch] [--trace-out PATH]
//
// Output: a provenance JSON line, then the result line
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/pipeline_mst.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/core/verify_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/obs/export.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"

namespace {

using namespace dmst;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

std::vector<EdgeId> sorted(std::vector<EdgeId> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

// Why each workload exists is recorded in README.md; in short:
// sparse-serial is idle-activation bound, dense-parallel is datapath and
// barrier bound, async-alpha is event-queue and synchronizer bound.
struct Workload {
    const char* name;
    const char* family;
    std::size_t n;
    Engine engine;
    int threads;
};

constexpr Workload kWorkloads[] = {
    {"sparse-serial", "er", 2048, Engine::Serial, 1},
    {"dense-parallel", "er_dense", 384, Engine::Parallel, 2},
    {"async-alpha", "er", 512, Engine::Async, 1},
};
constexpr std::size_t kSmokeN = 64;
// Set-up repeats until this much time is spent (at least kMinSetupReps,
// at most kMaxSetupReps) so its median is steady even though one set-up
// takes milliseconds.
constexpr double kSetupBudgetS = 0.5;
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 101;
constexpr int kMinIterations = 3;

template <class Opts>
Opts driver_options(const Workload& w)
{
    Opts o;
    o.bandwidth = 1;
    o.engine = w.engine;
    o.threads = w.threads;
    o.async.max_delay = 4;
    o.async.event_seed = 1;
    o.async.sync = SyncMode::Alpha;
    return o;
}

// ------------------------------------------------------------ spans

// Benchmark-side span log: one span per boundary call, kept in memory and
// written as a Chrome trace at exit. Only the traced run records.
class SpanLog {
public:
    explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}

    class Scope {
    public:
        Scope(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
        ~Scope() { log_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog& log_;
        int id_;
    };

    // Writes the spans plus, per span name, total and self time (duration
    // minus the part covered by child spans) and the given extra arrays.
    void write(const std::string& path, const std::string& extra_json) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write trace to " + path);
        out.precision(15);
        std::vector<double> child_s(spans_.size(), 0.0);
        for (const Span& s : spans_)
            if (s.parent >= 0)
                child_s[s.parent] += s.end_s - s.start_s;
        std::map<std::string, std::pair<double, double>> totals;  // total, self
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            const double dur = s.end_s - s.start_s;
            totals[s.name].first += dur;
            totals[s.name].second += dur - child_s[i];
            out << (i ? "," : "") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << s.start_s * 1e6 << ",\"dur\":" << dur * 1e6
                << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
                << "}}";
        }
        out << "],\"layers\":{";
        bool first = true;
        for (const auto& [name, t] : totals) {
            out << (first ? "" : ",") << "\"" << name << "\":{\"total_s\":"
                << t.first << ",\"self_s\":" << t.second << "}";
            first = false;
        }
        out << "}" << extra_json << "}\n";
    }

private:
    struct Span {
        std::string name;
        int parent;
        double start_s;
        double end_s;
    };

    int begin(const char* name)
    {
        if (!on_)
            return -1;
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, parent, seconds_since(t0_), 0.0});
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }
    void end(int id)
    {
        if (id < 0)
            return;
        spans_[id].end_s = seconds_since(t0_);
        open_.pop_back();
    }

    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ------------------------------------------------------------ driver decorator

// Forwarding Process decorator: times each on_round of the wrapped driver
// and counts activations, empty-inbox activations and deliveries. Every
// vertex owns its own decorator, so the parallel engine's shard threads
// share no counters.
class TimedProcess final : public Process {
public:
    explicit TimedProcess(std::unique_ptr<Process> inner) : inner_(std::move(inner)) {}

    void on_round(Context& ctx) override
    {
        const std::size_t inbox = ctx.inbox().size();
        ++activations;
        idle += inbox == 0;
        deliveries += inbox;
        const Clock::time_point t0 = Clock::now();
        inner_->on_round(ctx);
        step_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                .count());
    }
    bool done() const override { return inner_->done(); }
    const Process& inner() const { return *inner_; }

    std::uint64_t activations = 0;
    std::uint64_t idle = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t step_ns = 0;

private:
    std::unique_ptr<Process> inner_;
};

double cpu_seconds(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

struct TracedElkin {
    std::vector<EdgeId> edges;
    RunStats stats;
    double make_network_s = 0, init_s = 0, run_s = 0, run_cpu_s = 0, run_sys_s = 0;
    std::uint64_t activations = 0, idle = 0, deliveries = 0, step_ns = 0;
    std::vector<std::uint64_t> vertex_activations, vertex_idle, vertex_step_ns;
};

// run_elkin_mst rebuilt from make_network + init + run, with every
// ElkinProcess behind a TimedProcess. Same NetConfig as the library driver.
TracedElkin run_elkin_traced(const WeightedGraph& g, const ElkinOptions& opts,
                             SpanLog& log)
{
    TracedElkin t;
    NetConfig config = opts.to_net_config();
    config.record_per_round = true;
    config.trace.enabled = true;
    const std::uint64_t n = g.vertex_count();

    Clock::time_point t0 = Clock::now();
    std::unique_ptr<NetworkBase> net;
    {
        SpanLog::Scope s(log, "sim.make_network");
        net = make_network(g, config);
    }
    t.make_network_s = seconds_since(t0);

    t0 = Clock::now();
    {
        SpanLog::Scope s(log, "sim.init");
        net->init([&](VertexId v) {
            return std::make_unique<TimedProcess>(
                std::make_unique<ElkinProcess>(v, n, opts));
        });
    }
    t.init_s = seconds_since(t0);

    rusage r0{}, r1{};
    getrusage(RUSAGE_SELF, &r0);
    t0 = Clock::now();
    {
        SpanLog::Scope s(log, "sim.run");
        t.stats = net->run();
    }
    t.run_s = seconds_since(t0);
    getrusage(RUSAGE_SELF, &r1);
    t.run_sys_s = cpu_seconds(r1.ru_stime) - cpu_seconds(r0.ru_stime);
    t.run_cpu_s = cpu_seconds(r1.ru_utime) - cpu_seconds(r0.ru_utime) + t.run_sys_s;

    std::vector<std::vector<std::size_t>> ports(n);
    for (VertexId v = 0; v < n; ++v) {
        const auto& p = static_cast<const TimedProcess&>(net->process(v));
        const auto& elkin = static_cast<const ElkinProcess&>(p.inner());
        if (!elkin.done())
            throw std::runtime_error("traced Elkin: vertex not done");
        ports[v].assign(elkin.mst_ports().begin(), elkin.mst_ports().end());
        t.activations += p.activations;
        t.idle += p.idle;
        t.deliveries += p.deliveries;
        t.step_ns += p.step_ns;
        t.vertex_activations.push_back(p.activations);
        t.vertex_idle.push_back(p.idle);
        t.vertex_step_ns.push_back(p.step_ns);
    }
    t.edges = sorted(collect_mst_edges(g, ports));
    return t;
}

// ------------------------------------------------------------ checks

// Counts attempted runs and failed ones. A run fails when its output
// check fails, when it throws, or when its exact counters differ from the
// first iteration's.
class Checker {
public:
    void run(const std::string& what, const std::function<bool()>& body)
    {
        ++attempted_;
        bool ok = false;
        try {
            ok = body();
        } catch (const std::exception& e) {
            std::cerr << "mstbench: " << what << " threw: " << e.what() << "\n";
        }
        if (!ok) {
            ++failed_;
            std::cerr << "mstbench: check failed: " << what << "\n";
        }
    }

    // True iff `counters` equals the first value recorded under `key`.
    bool stable(const std::string& key, const std::vector<std::uint64_t>& counters)
    {
        auto [it, inserted] = first_.emplace(key, counters);
        return inserted || it->second == counters;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, std::vector<std::uint64_t>> first_;
};

std::vector<std::uint64_t> exact_counters(const RunStats& s)
{
    return {s.rounds, s.messages, s.words, s.events,
            s.virtual_time, s.sync_messages, s.sync_words};
}

std::vector<EdgeId> forest_edges(const WeightedGraph& g, const MstForestResult& r)
{
    std::vector<EdgeId> edges;
    for (VertexId v = 0; v < g.vertex_count(); ++v)
        for (std::size_t p : r.mst_ports[v])
            edges.push_back(g.edge_id(v, p));
    edges = sorted(std::move(edges));
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

// ------------------------------------------------------------ output

class Metrics {
public:
    void add(const std::string& name, double value, const char* unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        add_raw(name, buf, unit);
    }
    void count(const std::string& name, std::uint64_t value)
    {
        add_raw(name, std::to_string(value), "count");
    }
    std::string json() const { return "{" + body_ + "}"; }

private:
    void add_raw(const std::string& name, const std::string& value, const char* unit)
    {
        body_ += (body_.empty() ? "\"" : ", \"") + name + "\": {\"value\": " +
                 value + ", \"unit\": \"" + unit + "\"}";
    }
    std::string body_;
};

std::string u64_array(const std::vector<std::uint64_t>& v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + std::to_string(v[i]);
    return s + "]";
}

struct Args {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    bool inject_mismatch = false;
    std::string trace_out;
};

Args parse_args(int argc, char** argv)
{
    Args a;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            const std::string name = value();
            for (const Workload& w : kWorkloads)
                if (name == w.name)
                    a.workload = &w;
            if (!a.workload)
                throw std::invalid_argument("unknown workload '" + name + "'");
        } else if (flag == "--seed") {
            a.seed = std::stoull(value());
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value());
            have_seconds = a.seconds > 0;
        } else if (flag == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = t == "1";
        } else if (flag == "--trace-out") {
            a.trace_out = value();
        } else if (flag == "--smoke") {
            a.smoke = true;
        } else if (flag == "--inject-mismatch") {
            a.inject_mismatch = true;
        } else {
            throw std::invalid_argument("unknown flag '" + flag + "'");
        }
    }
    if (!a.workload || !have_seed || !have_seconds)
        throw std::invalid_argument(
            "usage: mstbench --workload NAME --seed N --seconds S --trace 0|1 "
            "[--smoke] [--inject-mismatch] [--trace-out PATH]");
    return a;
}

// ------------------------------------------------------------ benchmark

int run_benchmark(const Args& args)
{
    const Workload& w = *args.workload;
    const std::size_t n = args.smoke ? kSmokeN : w.n;
    SpanLog log(args.trace);
    Checker check;
    // Timing samples by span name; every reported time is a median.
    std::map<std::string, std::vector<double>> samples;
    auto med = [&](const std::string& name) { return median(samples[name]); };

    // Times one library call under a span of the same name.
    auto timed = [&](const char* name, auto&& call) {
        SpanLog::Scope s(log, name);
        const Clock::time_point t0 = Clock::now();
        auto result = call();
        samples[name].push_back(seconds_since(t0));
        return result;
    };

    // Set-up: graph generation and the Kruskal reference, repeated.
    std::optional<WeightedGraph> graph;
    MstResult ref;
    const Clock::time_point setup_start = Clock::now();
    for (int rep = 0; rep < kMaxSetupReps; ++rep) {
        if (rep >= kMinSetupReps && seconds_since(setup_start) >= kSetupBudgetS)
            break;
        graph = timed("graph.gen", [&] { return make_workload(w.family, n, args.seed); });
        ref = timed("seq.kruskal", [&] { return mst_kruskal(*graph); });
        samples["setup"].push_back(samples["graph.gen"].back() +
                                   samples["seq.kruskal"].back());
    }
    const WeightedGraph& g = *graph;

    const auto elkin_opts = driver_options<ElkinOptions>(w);
    const auto verify_opts = driver_options<VerifyOptions>(w);
    const auto pipeline_opts = driver_options<PipelineMstOptions>(w);
    const auto boruvka_opts = driver_options<SyncBoruvkaOptions>(w);
    auto boruvka_traced_opts = boruvka_opts;
    boruvka_traced_opts.trace = true;
    auto ghs_opts = driver_options<GhsOptions>(w);
    ghs_opts.k = static_cast<std::uint64_t>(std::ceil(std::sqrt(double(n))));
    auto native_opts = driver_options<GhsNativeOptions>(w);
    if (w.engine == Engine::Async)
        native_opts.async.sync = SyncMode::None;

    RunStats elkin_stats, verify_stats, boruvka_stats;
    std::uint64_t baseline_messages = 0, spans = 0;
    double peak_rss_mb = 0.0;
    TracedElkin traced;

    // Iteration 0 is a checked warm-up (first-touch page faults, cold
    // caches); its timings are dropped. Then iterate until the next
    // iteration would overrun the time budget.
    const Clock::time_point start = Clock::now();
    double last_iteration_s = 0.0;
    int iterations = 0;
    while (iterations <= kMinIterations ||
           seconds_since(start) + last_iteration_s <= args.seconds) {
        const Clock::time_point iteration_start = Clock::now();
        SpanLog::Scope iteration_span(log, "bench.iteration");
        std::uint64_t baseline_msgs = 0;

        DistributedMstResult elkin;
        check.run("elkin", [&] {
            elkin = timed("core.elkin", [&] { return run_elkin_mst(g, elkin_opts); });
            std::vector<EdgeId> got = elkin.mst_edges;
            if (args.inject_mismatch && !got.empty())
                got.pop_back();
            elkin_stats = elkin.stats;
            return !elkin.partial && sorted(got) == ref.edges &&
                   check.stable("elkin", exact_counters(elkin.stats));
        });
        check.run("verify", [&] {
            auto r = timed("core.verify", [&] {
                return run_verify_mst(g, elkin.mst_ports, verify_opts);
            });
            verify_stats = r.stats;
            return r.accepted && r.verdict == VerifyVerdict::Accept &&
                   check.stable("verify", exact_counters(r.stats));
        });
        check.run("pipeline", [&] {
            auto r = timed("core.pipeline",
                           [&] { return run_pipeline_mst(g, pipeline_opts); });
            baseline_msgs += r.stats.messages;
            return !r.partial && sorted(r.mst_edges) == ref.edges &&
                   check.stable("pipeline", exact_counters(r.stats));
        });
        check.run("boruvka", [&] {
            auto r = timed("core.boruvka",
                           [&] { return run_sync_boruvka(g, boruvka_opts); });
            baseline_msgs += r.stats.messages;
            boruvka_stats = r.stats;
            return !r.partial && sorted(r.mst_edges) == ref.edges &&
                   check.stable("boruvka", exact_counters(r.stats));
        });
        check.run("ghs", [&] {
            auto r = timed("core.ghs", [&] { return run_controlled_ghs(g, ghs_opts); });
            baseline_msgs += r.stats.messages;
            // Controlled GHS builds a base forest: a subforest of the MST.
            const std::vector<EdgeId> f = forest_edges(g, r);
            return !r.partial &&
                   std::includes(ref.edges.begin(), ref.edges.end(), f.begin(),
                                 f.end()) &&
                   check.stable("ghs", exact_counters(r.stats));
        });
        check.run("ghs_native", [&] {
            auto r = timed("core.ghs_native",
                           [&] { return run_ghs_native(g, native_opts); });
            baseline_msgs += r.stats.messages;
            return !r.partial && forest_edges(g, r) == ref.edges &&
                   check.stable("ghs_native", exact_counters(r.stats));
        });
        baseline_messages = baseline_msgs;

        if (args.trace) {
            check.run("elkin_traced", [&] {
                traced = timed("core.elkin.traced",
                               [&] { return run_elkin_traced(g, elkin_opts, log); });
                samples["sim.make_network"].push_back(traced.make_network_s);
                samples["sim.init"].push_back(traced.init_s);
                samples["sim.run"].push_back(traced.run_s);
                samples["sim.run_cpu"].push_back(traced.run_cpu_s);
                samples["sim.run_sys"].push_back(traced.run_sys_s);
                samples["core.elkin.step"].push_back(double(traced.step_ns) * 1e-9);
                // Parity with the untraced library run of this iteration.
                return traced.edges == sorted(elkin.mst_edges) &&
                       exact_counters(traced.stats) == exact_counters(elkin.stats) &&
                       traced.edges == ref.edges &&
                       check.stable("elkin_traced", {traced.activations, traced.idle,
                                                     traced.deliveries});
            });
            check.run("boruvka_traced", [&] {
                auto r = timed("core.boruvka.traced", [&] {
                    return run_sync_boruvka(g, boruvka_traced_opts);
                });
                return r.stats.trace && sorted(r.mst_edges) == ref.edges &&
                       exact_counters(r.stats) == exact_counters(boruvka_stats);
            });
            check.run("obs_export", [&] {
                if (!elkin.stats.trace)
                    return false;
                std::ostringstream out;
                timed("obs.export", [&] {
                    write_chrome_trace(out, *elkin.stats.trace);
                    return 0;
                });
                spans = elkin.stats.trace->spans.size();
                return !out.str().empty();
            });
        }
        if (iterations++ == 0) {
            for (auto& [name, v] : samples)
                if (name != "setup" && name != "graph.gen" && name != "seq.kruskal")
                    v.clear();
            // Memory for one pass: set-up plus each run once. Later
            // iterations only add heap fragmentation, which grows with
            // the iteration count and so with host speed. In the traced
            // run this includes the decorated Elkin run.
            rusage self{};
            getrusage(RUSAGE_SELF, &self);
            peak_rss_mb = double(self.ru_maxrss) / 1024.0;
        }
        last_iteration_s = seconds_since(iteration_start);
    }

    Metrics m;
    const double mst = med("core.elkin");
    if (!args.trace) {
        m.add("setup_s", med("setup"), "s");
        m.add("mst_s", mst, "s");
        m.add("verify_s", med("core.verify"), "s");
        m.add("baselines_s",
              med("core.pipeline") + med("core.boruvka") + med("core.ghs") +
                  med("core.ghs_native"),
              "s");
        m.count("rounds", elkin_stats.rounds);
        m.count("messages", elkin_stats.messages);
        m.count("wire_messages", elkin_stats.messages + elkin_stats.sync_messages);
        m.count("baseline_messages", baseline_messages);
    } else {
        const TracedElkin& t = traced;
        const RunStats& s = t.stats;
        const double kruskal = med("seq.kruskal");
        const double run = med("sim.run");
        const double run_cpu = med("sim.run_cpu");
        const double step = med("core.elkin.step");
        const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        m.add("graph.gen_s", med("graph.gen"), "s");
        m.add("seq.kruskal_s", kruskal, "s");
        m.add("seq.mst_over_kruskal", ratio(mst, kruskal), "ratio");
        m.count("core.elkin.activations", t.activations);
        m.count("core.elkin.idle_activations", t.idle);
        m.add("core.elkin.busy_ratio",
              ratio(double(t.activations - t.idle), double(t.activations)), "ratio");
        m.add("core.elkin.step_s", step, "s");
        m.add("core.elkin.step_ns_per_activation",
              ratio(step * 1e9, double(t.activations)), "ns");
        m.add("sim.make_network_s", med("sim.make_network"), "s");
        m.add("sim.init_s", med("sim.init"), "s");
        m.add("sim.run_s", run, "s");
        m.add("sim.run_cpu_s", run_cpu, "s");
        m.add("sim.run_sys_s", med("sim.run_sys"), "s");
        m.add("sim.engine_cpu_s", run_cpu - step, "s");
        m.add("sim.wait_s", w.threads * run - run_cpu, "s");
        m.count("sim.sync_messages", s.sync_messages);
        m.count("congest.deliveries", t.deliveries);
        m.add("congest.msgs_per_vertex_round",
              ratio(double(s.messages), double(n) * double(s.rounds)), "ratio");
        m.count("sim.async.events", s.events);
        m.count("sim.async.virtual_time", s.virtual_time);
        m.add("sim.async.events_per_s", ratio(double(s.events), run), "1/s");
        m.add("sim.async.sync_share", ratio(double(s.sync_messages), double(s.events)),
              "ratio");
        m.count("obs.spans", spans);
        m.add("obs.export_s", med("obs.export"), "s");
        m.add("obs.span_cost_ratio",
              ratio(med("core.boruvka.traced"), med("core.boruvka")), "ratio");
        m.count("core.verify.rounds", verify_stats.rounds);
        m.count("core.verify.messages", verify_stats.messages);
        m.add("core.pipeline_s", med("core.pipeline"), "s");
        m.add("core.boruvka_s", med("core.boruvka"), "s");
        m.add("core.ghs_s", med("core.ghs"), "s");
        m.add("core.ghs_native_s", med("core.ghs_native"), "s");
        m.add("bench.tracing_overhead_ratio", ratio(med("core.elkin.traced"), mst),
              "ratio");
        m.add("bench.peak_rss_mb", peak_rss_mb, "MB");
        if (!args.trace_out.empty())
            log.write(args.trace_out,
                      ",\"vertex_activations\":" + u64_array(t.vertex_activations) +
                          ",\"vertex_idle\":" + u64_array(t.vertex_idle) +
                          ",\"vertex_step_ns\":" + u64_array(t.vertex_step_ns));
    }

    std::cout << "{\"provenance\": {\"workload\": \"" << w.name
              << "\", \"family\": \"" << w.family << "\", \"n\": " << n
              << ", \"m\": " << g.edge_count() << ", \"engine\": \""
              << engine_name(w.engine) << "\", \"threads\": " << w.threads
              << ", \"timed_iterations\": " << iterations - 1
              << ", \"build_type\": \""
#ifdef NDEBUG
              << "release"
#else
              << "debug"
#endif
              << "\", \"compiler\": \""
#ifdef __clang__
              << "clang "
#elif defined(__GNUC__)
              << "gcc "
#endif
              << __VERSION__ << "\"}}\n";
    std::cout << "{\"correct\": " << (check.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << check.attempted()
              << ", \"failed\": " << check.failed() << ", \"metrics\": " << m.json()
              << "}" << std::endl;
    return check.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
    try {
        return run_benchmark(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "mstbench: " << e.what() << "\n";
        return 2;
    }
}
