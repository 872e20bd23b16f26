// Serving benchmark for the MIME multi-task runtime.
//
//   mime_perfbench --workload <pipelined|singular|burst|burst_int8> --seed N
//                  --seconds S --trace <0|1> --store DIR
//
// Writes a seeded deployment (one backbone plus one adaptation per task)
// into the AdaptationStore at DIR, sets up a ServerPool on it several
// times (the median is setup_s), replays the workload's seeded request
// schedule through the public InferenceService API, checks every
// outcome and a seeded sample of the served logits, and prints one JSON
// object as the last line of stdout. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it replays the schedule once
// untraced and once with every request traced and reports per-layer
// metrics, including the tracing overhead. README.md beside this file
// explains the workloads and the metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/adaptation_store.h"
#include "deployment.h"
#include "layers.h"
#include "load.h"
#include "serve/routing.h"
#include "serve/server_pool.h"

using namespace mime;
using namespace perfbench;

namespace {

constexpr std::size_t kImages = 64;
/// Served results recomputed on the reference network (expected count;
/// refused requests have no logits and drop out).
constexpr double kCheckedSamples = 128.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string store;
};

bool parse_args(int argc, char** argv, Args& args) {
    bool have[5] = {};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
            have[1] = true;
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value);
            have[2] = args.seconds > 0.0;
        } else if (flag == "--trace") {
            args.trace = std::string(value) == "1";
            have[3] = args.trace || std::string(value) == "0";
        } else if (flag == "--store") {
            args.store = value;
            have[4] = !args.store.empty();
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && std::all_of(std::begin(have), std::end(have),
                                        [](bool b) { return b; });
}

struct Workload {
    DeploymentSpec deployment;
    serve::PoolConfig pool;
    /// Closed-loop client count; 0 = open loop.
    std::size_t clients = 0;
    /// Timed set-ups per run, enough for 3-6 s of them: one set-up
    /// takes tens to hundreds of ms, and host speed changes on a scale
    /// of seconds, so the median of a short burst of set-ups follows
    /// whatever the host did during that burst.
    int setup_repeats = 15;
    std::vector<Request> schedule;
};

std::string task_name(std::size_t t) {
    char name[16];
    std::snprintf(name, sizeof(name), "task%02zu", t);
    return name;
}

/// Dense, half-live, quarter-live, and dense-but-half-zeroed-at-run-time
/// tasks in rotation.
std::vector<TaskSpec> mixed_tasks(std::size_t count) {
    constexpr double kLive[] = {1.0, 0.5, 0.25, 1.0};
    constexpr double kRuntimeZero[] = {0.0, 0.0, 0.0, 0.5};
    std::vector<TaskSpec> tasks;
    for (std::size_t t = 0; t < count; ++t) {
        tasks.push_back({task_name(t), kLive[t % 4], kRuntimeZero[t % 4]});
    }
    return tasks;
}

serve::PoolConfig single_threaded_replicas(std::size_t replicas,
                                           serve::RoutingPolicy routing,
                                           std::size_t cache_capacity) {
    serve::PoolConfig pool;
    pool.replica_count = replicas;
    pool.routing = routing;
    pool.server.worker_threads = 1;
    pool.server.cache_capacity = cache_capacity;
    return pool;
}

/// Pipelined task mode: independent users, Poisson arrivals, tasks drawn
/// Zipf(1.1) over 16 so consecutive requests rarely share a task; more
/// tasks per replica than cache slots, so a share of batches hydrates
/// its adaptation from disk.
Workload pipelined(std::uint64_t seed, double seconds) {
    constexpr std::size_t kTasks = 16;
    constexpr double kRatePerS = 1000.0;
    Workload w;
    w.deployment = {0.0625, mixed_tasks(kTasks), seed};
    w.pool = single_threaded_replicas(2, serve::RoutingPolicy::task_affinity,
                                      4);
    w.setup_repeats = 101;
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t t = 0; t < kTasks; ++t) {
        total += 1.0 / std::pow(static_cast<double>(t + 1), 1.1);
        cdf.push_back(total);
    }
    Random random(seed);
    double due_us = 0.0;
    const auto n = static_cast<std::size_t>(kRatePerS * seconds);
    for (std::size_t i = 0; i < n; ++i) {
        due_us += random.exponential(kRatePerS / 1e6);
        const double u = random.uniform() * total;
        const auto task = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        w.schedule.push_back({due_us, std::min(task, kTasks - 1),
                              random.index(kImages),
                              serve::Priority::interactive, 500000, 20000});
    }
    return w;
}

/// Singular task mode: a closed loop of 48 clients that all use one task
/// per phase; six tasks of different structural and run-time density
/// cycle through phases. Every adaptation stays resident, so the float
/// forward is nearly all of the work.
Workload singular(std::uint64_t seed, double seconds) {
    constexpr double kRequestsPerS = 500.0;
    constexpr std::size_t kPhaseRequests = 120;
    Workload w;
    w.deployment = {0.25,
                    {{task_name(0), 0.25, 0.0},
                     {task_name(1), 0.5, 0.0},
                     {task_name(2), 1.0, 0.0},
                     {task_name(3), 1.0, 0.75},
                     {task_name(4), 1.0, 0.5},
                     {task_name(5), 1.0, 0.25}},
                    seed};
    w.pool = single_threaded_replicas(3, serve::RoutingPolicy::round_robin,
                                      w.deployment.tasks.size());
    w.clients = 48;
    Random random(seed);
    const auto n = static_cast<std::size_t>(kRequestsPerS * seconds);
    for (std::size_t i = 0; i < n; ++i) {
        w.schedule.push_back({0.0,
                              (i / kPhaseRequests) % w.deployment.tasks.size(),
                              random.index(kImages),
                              serve::Priority::interactive, 0, 500000});
    }
    return w;
}

/// Deadline-bound overload: open-loop on/off load (3.75 s at 500 req/s,
/// 0.25 s at 5000 req/s) where 25% of requests are interactive with a
/// generous deadline and 75% batch with a tight one; each request's
/// deadline is its on-time limit. `int8` serves through the quantized
/// kernels (burst_int8), otherwise the float ones (burst).
Workload burst(std::uint64_t seed, double seconds, bool int8) {
    constexpr std::size_t kTasks = 8;
    struct Segment {
        double length_s;
        double rate_per_s;
    };
    constexpr Segment kCycle[] = {{3.75, 500.0}, {0.25, 5000.0}};
    Workload w;
    w.deployment = {0.125, mixed_tasks(kTasks), seed};
    w.pool = single_threaded_replicas(2, serve::RoutingPolicy::least_loaded,
                                      kTasks);
    w.pool.server.quantized_execution = int8;
    // More in flight than this cannot meet even the interactive deadline.
    w.pool.admission = serve::AdmissionMode::shed;
    w.pool.max_pending = 128;
    w.setup_repeats = 31;
    Random random(seed);
    double start_s = 0.0;
    while (start_s < seconds) {
        for (const Segment& segment : kCycle) {
            const double end_s = std::min(start_s + segment.length_s, seconds);
            double t_s = start_s;
            for (;;) {
                t_s += random.exponential(segment.rate_per_s);
                if (t_s >= end_s) {
                    break;
                }
                const bool interactive = random.uniform() < 0.25;
                const std::int64_t deadline_us = interactive ? 100000 : 15000;
                w.schedule.push_back(
                    {t_s * 1e6, random.index(kTasks), random.index(kImages),
                     interactive ? serve::Priority::interactive
                                 : serve::Priority::batch,
                     deadline_us, deadline_us});
            }
            start_s = end_s;
        }
    }
    return w;
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   double seconds, Workload& w) {
    if (name == "pipelined") {
        w = pipelined(seed, seconds);
    } else if (name == "singular") {
        w = singular(seed, seconds);
    } else if (name == "burst" || name == "burst_int8") {
        w = burst(seed, seconds, name == "burst_int8");
    } else {
        return false;
    }
    return true;
}

struct Serving {
    std::unique_ptr<core::MimeNetwork> network;
    std::unique_ptr<serve::ServerPool> pool;  ///< serves on *network
};

void tear_down(Serving& serving) {
    serving.pool.reset();  // the pool uses the network until it stops
    serving.network.reset();
}

struct Inputs {
    std::vector<std::string> task_names;
    std::vector<Tensor> images;
};

Phase replay(const Workload& w, serve::InferenceService& service,
             const std::vector<Request>& schedule, const Inputs& inputs,
             const std::vector<bool>& keep_logits) {
    if (w.clients > 0) {
        return run_closed_loop(service, schedule, w.clients,
                               inputs.task_names, inputs.images, keep_logits);
    }
    return run_open_loop(service, schedule, inputs.task_names, inputs.images,
                         keep_logits);
}

/// Replays `sequence` with every request sent at once.
void send_together(serve::InferenceService& service,
                   const std::vector<Request>& sequence, const Inputs& inputs,
                   Accounting& accounting) {
    accounting.add(run_closed_loop(service, sequence, sequence.size(),
                                   inputs.task_names, inputs.images,
                                   std::vector<bool>(sequence.size(), false)));
}

Request warmup_request(std::size_t task, std::size_t image) {
    return Request{0.0, task, image % kImages, serve::Priority::interactive,
                   0, 0};
}

/// The timed set-up: loads the backbone from the store, builds the pool,
/// and serves one full batch of every task on every replica it is routed
/// to, so every task a replica will serve is hydrated. Only full batches
/// are sent: a partial batch leaves only when the batcher's max_wait
/// timer fires, and timer wake-ups on a shared host are late by
/// milliseconds at random.
Serving set_up(const Workload& w, const core::AdaptationStore& store,
               serve::ThresholdCache::Loader loader,
               const serve::PoolConfig& config, const Inputs& inputs,
               Accounting& warmup) {
    Serving serving;
    serving.network =
        std::make_unique<core::MimeNetwork>(network_config(w.deployment));
    store.load_backbone(*serving.network);
    serving.pool = std::make_unique<serve::ServerPool>(
        *serving.network, std::move(loader), config);
    const auto max_batch =
        static_cast<std::size_t>(config.server.batcher.max_batch_size);
    const std::size_t per_task =
        config.routing == serve::RoutingPolicy::task_affinity
            ? max_batch
            : max_batch * config.replica_count;
    std::vector<Request> touch;
    for (std::size_t t = 0; t < w.deployment.tasks.size(); ++t) {
        for (std::size_t k = 0; k < per_task; ++k) {
            touch.push_back(warmup_request(t, t + k));
        }
    }
    send_together(*serving.pool, touch, inputs, warmup);
    return serving;
}

/// Untimed, after set-up: every replica runs one batch of each size
/// below max_batch_size (set-up ran the full size), so every forward
/// plan is built before the measured phase (plans are built lazily per
/// batch size and never freed; left to the measured phase, how many get
/// built would follow its largest backlog).
void build_plans(const Workload& w, const serve::PoolConfig& config,
                 serve::ServerPool& pool, const Inputs& inputs,
                 Accounting& warmup) {
    const std::size_t tasks = w.deployment.tasks.size();
    const std::size_t replicas = config.replica_count;
    // Tasks whose batches land on each replica: under task_affinity the
    // task hash picks the replica; under the other policies a burst of
    // size * replicas requests of one task gives each replica ~size.
    std::vector<std::size_t> per_replica;
    if (config.routing == serve::RoutingPolicy::task_affinity) {
        for (std::size_t r = 0; r < replicas; ++r) {
            for (std::size_t t = 0; t < tasks; ++t) {
                if (serve::task_hash(w.deployment.tasks[t].name) % replicas ==
                    r) {
                    per_replica.push_back(t);
                    break;
                }
            }
        }
    } else {
        per_replica.assign(replicas, 0);
    }
    const auto max_batch =
        static_cast<std::size_t>(config.server.batcher.max_batch_size);
    for (std::size_t size = 1; size < max_batch; ++size) {
        std::vector<Request> round;
        for (const std::size_t t : per_replica) {
            for (std::size_t k = 0; k < size; ++k) {
                round.push_back(warmup_request(t, size + k));
            }
        }
        send_together(pool, round, inputs, warmup);
    }
}

struct Summary {
    std::int64_t ok = 0;
    double throughput_rps = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_p999_ms = 0.0;
    double ontime_ratio = 0.0;
    double ok_ratio = 0.0;
    double cpu_ms_per_req = 0.0;
    double lateness_p50_us = 0.0;
    double lateness_p99_us = 0.0;
};

Summary summarize(const Phase& phase, const std::vector<Request>& schedule) {
    Summary s;
    std::vector<double> latency_ms;
    std::vector<double> lateness_us;
    std::int64_t ontime = 0;
    for (std::size_t i = 0; i < phase.records.size(); ++i) {
        const Record& record = phase.records[i];
        lateness_us.push_back(to_us(record.sent - record.origin));
        if (!record.delivered || record.status != serve::ServeStatus::ok) {
            continue;
        }
        ++s.ok;
        const double latency_us = to_us(record.done - record.origin);
        latency_ms.push_back(latency_us / 1e3);
        if (latency_us <= static_cast<double>(schedule[i].limit_us)) {
            ++ontime;
        }
    }
    const double offered = static_cast<double>(phase.records.size());
    const double wall_s =
        std::chrono::duration<double>(phase.end - phase.begin).count();
    s.throughput_rps = wall_s > 0.0 ? static_cast<double>(s.ok) / wall_s : 0.0;
    s.latency_p50_ms = quantile(latency_ms, 0.5);
    s.latency_p99_ms = quantile(latency_ms, 0.99);
    s.latency_p999_ms = quantile(latency_ms, 0.999);
    s.ontime_ratio = static_cast<double>(ontime) / offered;
    s.ok_ratio = static_cast<double>(s.ok) / offered;
    s.cpu_ms_per_req =
        s.ok > 0 ? phase.cpu_seconds * 1e3 / static_cast<double>(s.ok) : 0.0;
    s.lateness_p50_us = quantile(lateness_us, 0.5);
    s.lateness_p99_us = quantile(lateness_us, 0.99);
    return s;
}

void print_summary(const char* label, const Summary& s) {
    // A percentile is printed only when at least ten samples lie beyond it.
    const auto tail = [&s](double q, double value) {
        char text[48];
        if (static_cast<double>(s.ok) * (1.0 - q) >= 10.0) {
            std::snprintf(text, sizeof(text), "%.3f", value);
        } else {
            std::snprintf(text, sizeof(text), "n/a");
        }
        return std::string(text);
    };
    std::printf("%s: ok=%lld throughput=%.1f req/s latency_ms p50=%.3f "
                "p99=%s p99.9=%s (n=%lld, diagnostic) on_time=%.4f "
                "ok_ratio=%.4f cpu_ms/req=%.4f generator_lateness_us "
                "p50=%.1f p99=%.1f\n",
                label, static_cast<long long>(s.ok), s.throughput_rps,
                s.latency_p50_ms, tail(0.99, s.latency_p99_ms).c_str(),
                tail(0.999, s.latency_p999_ms).c_str(),
                static_cast<long long>(s.ok), s.ontime_ratio, s.ok_ratio,
                s.cpu_ms_per_req, s.lateness_p50_us, s.lateness_p99_us);
}

std::vector<ServedSample> samples_of(const Phase& phase,
                                     const std::vector<Request>& schedule) {
    std::vector<ServedSample> samples;
    for (std::size_t i = 0; i < phase.records.size(); ++i) {
        const Record& record = phase.records[i];
        if (record.keep_logits && record.delivered &&
            record.status == serve::ServeStatus::ok) {
            samples.push_back(
                {schedule[i].task, schedule[i].image, record.logits});
        }
    }
    return samples;
}

const TaskSpec& find_task(const DeploymentSpec& spec, bool sparse) {
    for (const TaskSpec& task : spec.tasks) {
        if (sparse ? task.live_fraction <= 0.5
                   : task.live_fraction == 1.0 &&
                         task.runtime_zero_fraction == 0.0) {
            return task;
        }
    }
    return spec.tasks.front();
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    Workload w;
    if (!parse_args(argc, argv, args) ||
        !make_workload(args.workload, args.seed, args.seconds, w)) {
        std::fprintf(stderr,
                     "usage: mime_perfbench --workload "
                     "<pipelined|singular|burst|burst_int8> --seed N --seconds S "
                     "--trace <0|1> --store DIR\n");
        return 2;
    }

    std::filesystem::remove_all(args.store);
    core::AdaptationStore store(args.store);
    write_deployment(w.deployment, store);
    Inputs inputs;
    Random random(args.seed ^ 0x5eedf00dULL);
    for (std::size_t t = 0; t < w.deployment.tasks.size(); ++t) {
        inputs.task_names.push_back(w.deployment.tasks[t].name);
    }
    const Shape image_shape({3, 32, 32});
    for (std::size_t i = 0; i < kImages; ++i) {
        inputs.images.push_back(random_image(random, image_shape));
    }
    std::vector<bool> keep_logits;
    for (std::size_t i = 0; i < w.schedule.size(); ++i) {
        keep_logits.push_back(random.uniform() * static_cast<double>(
                                                     w.schedule.size()) <
                              kCheckedSamples);
    }
    std::printf("workload=%s seed=%llu requests=%zu %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                w.schedule.size(),
                w.clients > 0 ? "closed-loop" : "open-loop");

    Accounting warmup;
    Accounting measured;
    std::vector<double> setup_s;
    Serving serving;
    for (int r = 0; r < w.setup_repeats; ++r) {
        tear_down(serving);
        const Clock::time_point begin = Clock::now();
        serving = set_up(w, store, store.task_loader(), w.pool, inputs, warmup);
        setup_s.push_back(
            std::chrono::duration<double>(Clock::now() - begin).count());
    }
    build_plans(w, w.pool, *serving.pool, inputs, warmup);
    const bool peak_reset = reset_peak_rss();

    std::vector<Metric> metrics;
    Phase phase = replay(w, *serving.pool, w.schedule, inputs, keep_logits);
    const double rss_peak_mib = peak_rss_mib();
    measured.add(phase);
    const Summary untraced = summarize(phase, w.schedule);
    print_summary("measured", untraced);
    tear_down(serving);
    if (!args.trace) {
        metrics.push_back({"throughput_rps", untraced.throughput_rps, "1/s"});
        metrics.push_back({"latency_p50_ms", untraced.latency_p50_ms, "ms"});
        metrics.push_back({"ontime_ratio", untraced.ontime_ratio, "ratio"});
        metrics.push_back({"ok_ratio", untraced.ok_ratio, "ratio"});
        metrics.push_back({"cpu_ms_per_req", untraced.cpu_ms_per_req, "ms"});
        metrics.push_back({"rss_peak_mib", rss_peak_mib, "MiB"});
        metrics.push_back({"setup_s", quantile(setup_s, 0.5), "s"});
    } else {
        LoaderTimer timer(store.task_loader());
        serve::PoolConfig config = w.pool;
        config.server.trace_sample_rate = 1.0;
        serving = set_up(w, store, timer.loader(), config, inputs, warmup);
        build_plans(w, config, *serving.pool, inputs, warmup);
        timer.take();
        const serve::PoolStats before = serving.pool->stats();
        phase = replay(w, *serving.pool, w.schedule, inputs, keep_logits);
        const serve::PoolStats after = serving.pool->stats();
        measured.add(phase);
        const Summary traced = summarize(phase, w.schedule);
        print_summary("traced", traced);
        serving.pool->stop();
        add_serving_metrics(metrics, phase, w.schedule, inputs.task_names,
                            timer.take(), before, after);
        add_forward_sweep(
            metrics, *serving.network,
            store.load_task(find_task(w.deployment, false).name),
            store.load_task(find_task(w.deployment, true).name),
            inputs.images, w.pool.server.batcher.max_batch_size);
        constexpr double kMiB = 1024.0 * 1024.0;
        const double tasks = static_cast<double>(w.deployment.tasks.size());
        metrics.push_back(
            {"core.shared_backbone_bytes",
             static_cast<double>(serving.network->shared_backbone_bytes()),
             "bytes"});
        metrics.push_back({"core.store_mib",
                           static_cast<double>(store.backbone_bytes() +
                                               store.adaptation_bytes()) /
                               kMiB,
                           "MiB"});
        metrics.push_back(
            {"core.conventional_mib",
             tasks * static_cast<double>(store.backbone_bytes()) / kMiB,
             "MiB"});
        metrics.push_back({"obs.overhead.cpu_ms_per_req",
                           traced.cpu_ms_per_req / untraced.cpu_ms_per_req,
                           "ratio"});
        metrics.push_back({"obs.overhead.latency_p50_ms",
                           traced.latency_p50_ms / untraced.latency_p50_ms,
                           "ratio"});
        tear_down(serving);
    }

    const CheckReport check =
        check_outputs(w.deployment, store, inputs.images,
                      samples_of(phase, w.schedule),
                      w.pool.server.quantized_execution);
    std::filesystem::remove_all(args.store);

    std::printf("warm-up:  %s\n", warmup.to_string().c_str());
    std::printf("measured: %s\n", measured.to_string().c_str());
    std::printf("output check: %s: %s\n", check.passed ? "pass" : "FAIL",
                check.detail.c_str());
    std::printf("setup_s over %zu repeats: min %.4f q1 %.4f median %.4f "
                "q3 %.4f max %.4f\n",
                setup_s.size(), quantile(setup_s, 0.0), quantile(setup_s, 0.25),
                quantile(setup_s, 0.5), quantile(setup_s, 0.75),
                quantile(setup_s, 1.0));
    std::printf("peak RSS reset after set-up: %s\n",
                peak_reset ? "yes" : "no (peak covers the whole process)");
    bool finite = true;
    for (const Metric& metric : metrics) {
        std::printf("  %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
        finite = finite && std::isfinite(metric.value);
    }

    const std::int64_t failed = warmup.failed() + measured.failed();
    const bool correct = check.passed && failed == 0 && finite;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(measured.sent),
                static_cast<long long>(failed));
    for (std::size_t m = 0; m < metrics.size(); ++m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    m == 0 ? "" : ", ", metrics[m].name.c_str(),
                    std::isfinite(metrics[m].value) ? metrics[m].value : 0.0,
                    metrics[m].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
