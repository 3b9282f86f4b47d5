// End-to-end benchmark of ESCAPE-cpp: runs one workload against the
// public escape::Environment API for a fixed host-time budget and prints
// one JSON result line. Usage:
//
//   escape_perf --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (span-traced episodes, counts, probes and the data-plane stage stack).
// A full result record (host calibration, every metric, per-episode
// samples) and, for traced runs, the spans go under DIR (default
// .bench_build). See NOTES.md.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/logging.hpp"
#include "workloads.hpp"

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif

namespace perf {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--out-dir") a.out_dir = v;
    else return false;
  }
  return argc % 2 == 1 && a.seconds > 0 &&
         std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) != kWorkloads.end();
}

// --- host calibration --------------------------------------------------------

/// Fixed integer work; returns host nanoseconds taken.
double spin(std::uint64_t iterations, std::atomic<std::uint64_t>& sink) {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink += x;
  return seconds_since(t0) * 1e9;
}

struct Calibration {
  unsigned hardware_concurrency = 0;
  double effective_parallelism = 0;
  double calib_ns_start = 0, calib_ns_end = 0;
};

/// Effective parallelism: N threads each doing the work one thread did
/// alone; N * t1 / tN is how many ran at once.
double effective_parallelism(unsigned n) {
  constexpr std::uint64_t kWork = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const double t1 = spin(kWork, sink);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back([&] { spin(kWork, sink); });
  for (auto& t : threads) t.join();
  const double tn = seconds_since(t0) * 1e9;
  return tn > 0 ? static_cast<double>(n) * t1 / tn : 0;
}

double calibration_ns() {
  std::atomic<std::uint64_t> sink{0};
  std::vector<double> ns;
  for (int i = 0; i < 5; ++i) ns.push_back(spin(10'000'000, sink));
  return median(ns);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", " : "") + json_str(metrics[i].name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Host times are quiet-core seconds (QuietClock).
std::vector<Metric> end_to_end(const std::vector<Episode>& eps, const QuietClock& quiet,
                               const Episode& ref) {
  std::vector<double> deploy_ms, setup_s, pkts_per_s, cycles_per_s;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  for (const Episode& e : eps) {
    for (const Interval& d : e.deploys) deploy_ms.push_back(quiet.quiet_s(d) * 1e3);
    setup_s.push_back(quiet.quiet_s(e.setup));
    // Frames sent, not delivered: the gate makes them equal on the
    // lossless workloads, and on fattree_churn the delivered share is a
    // property of the seed's plan, not of host speed.
    pkts_per_s.push_back(ratio(static_cast<double>(e.timed_offered), quiet.quiet_s(e.timed)));
    double cycles_s = 0;
    for (const Interval& c : e.cycles) cycles_s += quiet.quiet_s(c);
    cycles_per_s.push_back(ratio(static_cast<double>(e.cycles.size()), cycles_s));
  }
  return {
      {"setup_s", median(setup_s), "s"},
      {"pkts_per_s", median(pkts_per_s), "1/s"},
      {"deploy_ms_p50", percentile(deploy_ms, 50), "ms"},
      {"deploy_ms_p95", percentile(deploy_ms, 95), "ms"},
      {"lifecycle_cycles_per_s", median(cycles_per_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"delivered_ratio",
       ratio(static_cast<double>(ref.timed_delivered), static_cast<double>(ref.timed_offered)),
       "ratio"},
      {"virt_latency_us_p50", percentile(ref.latency_us, 50), "us"},
      {"virt_latency_us_p99", percentile(ref.latency_us, 99), "us"},
      {"virt_setup_ms_p50", median(ref.virt_setup_ms), "ms"},
      {"virt_scale_ms_p50", median(ref.virt_scale_ms), "ms"},
      {"virt_recovery_ms_p50", median(ref.virt_recovery_ms), "ms"},
  };
}

/// Every per-layer metric with its unit, in report order. Each traced run
/// reports all of them (0 where a workload never exercises the layer).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    // data-plane stage stack: host ns per frame
    {"util.event.ns_per_event", "ns"},
    {"netemu.host.ns_per_pkt", "ns"},
    {"netemu.link.ns_per_hop", "ns"},
    {"openflow.switch.ns_per_pkt", "ns"},
    {"netemu.vnf_container.ns_per_pkt", "ns"},
    {"click.empty.ns_per_pkt", "ns"},
    {"click.firewall.ns_per_pkt", "ns"},
    {"click.flow_nat.ns_per_pkt", "ns"},
    {"click.dpi.ns_per_pkt", "ns"},
    {"click.monitor.ns_per_pkt", "ns"},
    {"escape.chain.ns_per_pkt", "ns"},
    {"unattributed_share", "ratio"},
    // counts from the workload's own episode
    {"util.event.events_per_pkt", "1/pkt"},
    {"net.packet_clones_per_pkt", "1/pkt"},
    {"openflow.flow_table.lookups", "count"},
    {"openflow.flow_table.matches", "count"},
    {"openflow.flow_table.miss_short_circuits", "count"},
    {"openflow.flow_table.miss_memo_ratio", "ratio"},
    {"openflow.flow_table.entries", "count"},
    {"openflow.flow_table.mask_groups", "count"},
    {"openflow.flow_table.ns_per_lookup_hit", "ns"},
    {"openflow.flow_table.ns_per_lookup_miss", "ns"},
    {"pox.packet_ins", "count"},
    {"pox.packet_in_rtt_us_p50", "us"},
    {"netemu.link.dropped", "count"},
    {"netemu.link.queue_depth_max", "count"},
    {"click.flow_manager.active_flows", "count"},
    {"click.firewall.verdict_cache_hit_ratio", "ratio"},
    // control plane
    {"orchestrator.mapping.wall_us", "us"},
    {"netconf.rpc_wall_us", "us"},
    {"netconf.rpcs", "count"},
    {"netconf.rpc_retries", "count"},
    {"netconf.rpc_timeouts", "count"},
    {"netconf.rpc_errors", "count"},
    {"netconf.rpc_rtt_us_p50", "us"},
    {"pox.steering.flowmods", "count"},
    {"pox.steering.install_latency_us_p50", "us"},
    {"escape.deploy.wall_ms", "ms"},
    {"escape.scale_chain.wall_ms", "ms"},
    {"escape.undeploy.wall_ms", "ms"},
    {"escape.run_for.wall_ms", "ms"},
    // the trace itself: overhead, and self time per episode of each span kind
    {"trace.overhead_share", "ratio"},
    {"trace.spans_per_episode", "count"},
    {"trace.self_ms.escape.start", "ms"},
    {"trace.self_ms.escape.deploy", "ms"},
    {"trace.self_ms.escape.scale_chain", "ms"},
    {"trace.self_ms.escape.undeploy", "ms"},
    {"trace.self_ms.escape.run_for", "ms"},
    {"trace.self_ms.escape.recover", "ms"},
    {"trace.self_ms.cycle", "ms"},
    {"trace.self_ms.traffic", "ms"},
};

/// Cross-run determinism record: the first run of a (workload, seed)
/// in this checkout stores its fingerprint; later ones must match it.
std::string check_stored(const std::filesystem::path& dir, const Args& a,
                         const std::string& fingerprint) {
  std::filesystem::create_directories(dir);
  const auto path = dir / (a.workload + "-" + std::to_string(a.seed) + ".txt");
  std::ifstream in(path);
  std::string stored;
  if (in && std::getline(in, stored)) {
    return stored == fingerprint ? "" : "fingerprint differs from an earlier run: " + stored;
  }
  std::ofstream(path) << fingerprint << "\n";
  return "";
}

int run(const Args& a) {
  Logging::set_level(LogLevel::kOff);
  const auto run_start = Clock::now();
  Calibration cal;
  cal.calib_ns_start = calibration_ns();

  // Every run must be lossless and free of failed operations, except on
  // fattree_churn, where most flows have no route by design and failed
  // churn operations are counted (in `failed`), not fatal.
  const bool lossless = a.workload != "fattree_churn";
  std::vector<std::string> problems, notes;
  std::uint64_t attempted = 0, failed = 0;
  std::string fingerprint;
  bool deterministic = true;
  const auto account = [&](const Episode& e) {
    attempted += e.attempted;
    failed += e.failed;
    if (deterministic && e.fingerprint() != fingerprint) {
      deterministic = false;
      problems.push_back("episode not deterministic: " + e.fingerprint() + " vs " + fingerprint);
    }
    for (const auto& v : e.violations) problems.push_back("invariant: " + v);
    for (const auto& err : e.errors) {
      (lossless ? problems : notes).push_back("operation failed: " + err);
    }
  };

  Tracer off;
  // Warm-up episode: fills caches and pools, and is the reference every
  // later episode of this seed must reproduce in virtual time.
  const Episode ref = run_episode(a.workload, a.seed, off, false);
  fingerprint = ref.fingerprint();
  account(ref);

  // Untraced episodes give the end-to-end metrics. The traced run
  // alternates untraced and span-traced episodes for 70% of its budget
  // (their difference is the tracing overhead), then runs one episode
  // with per-layer counts and probes, and the stage stack.
  std::vector<Episode> eps;
  std::vector<Interval> untraced, traced_eps;
  QuietClock& quiet = quiet_clock();
  quiet.inside_episodes = !a.trace;
  Tracer tracer;
  tracer.enabled = true;
  const double budget = a.trace ? a.seconds * 0.7 : a.seconds;
  const auto loop_start = Clock::now();
  do {
    quiet.tick();
    const bool traced = a.trace && untraced.size() > traced_eps.size();
    Tracer& tr = traced ? tracer : off;
    tr.group = untraced.size() + traced_eps.size() + 1;
    ScopedSpan span(tr, "episode");
    const auto e0 = Clock::now();
    Episode e = run_episode(a.workload, a.seed, tr, false);
    (traced ? traced_eps : untraced).push_back({e0, Clock::now()});
    account(e);
    if (!traced) {
      // Keep only what the host-time metrics need: memory must not grow
      // with the number of episodes.
      e.latency_us.clear();
      e.latency_us.shrink_to_fit();
      eps.push_back(std::move(e));
    }
  } while (seconds_since(loop_start) < budget || untraced.size() < 3 ||
           (a.trace && traced_eps.size() < 3));
  quiet.inside_episodes = false;
  quiet.probe_point();

  std::map<std::string, double> layers;
  std::string gap_note;
  if (a.trace) {
    const double episodes = static_cast<double>(traced_eps.size());
    for (const auto& [name, ms] : tracer.self_ms()) {
      if (name.rfind("escape.", 0) == 0 || name == "cycle" || name == "traffic") {
        layers["trace.self_ms." + name] = ms / episodes;
      }
    }
    for (const char* call : {"escape.deploy", "escape.scale_chain", "escape.undeploy",
                             "escape.run_for"}) {
      layers[std::string(call) + ".wall_ms"] = tracer.median_ms(call);
    }
    const auto quiet_median = [&quiet](const std::vector<Interval>& intervals) {
      std::vector<double> s;
      for (const Interval& i : intervals) s.push_back(quiet.quiet_s(i));
      return median(s);
    };
    layers["trace.overhead_share"] = quiet_median(traced_eps) / quiet_median(untraced) - 1.0;
    layers["trace.spans_per_episode"] = static_cast<double>(tracer.spans.size()) / episodes;
    tracer.group = untraced.size() + traced_eps.size() + 1;
    Episode probe = run_episode(a.workload, a.seed, tracer, true);
    layers.insert(probe.layer.begin(), probe.layer.end());
    if (auto error = run_stage_stack(probe.frames, tracer, layers, gap_note); !error.empty()) {
      problems.push_back("stage stack: " + error);
    }
    account(probe);
  }

  if (lossless && ref.delivered != ref.offered) {
    problems.push_back("loss: " + std::to_string(ref.delivered) + "/" +
                       std::to_string(ref.offered) + " delivered");
  }
  const std::filesystem::path out_dir(a.out_dir);
  if (auto p = check_stored(out_dir / "fingerprints", a, fingerprint); !p.empty()) {
    problems.push_back(p);
  }

  // The spin test loads every core, so it runs after the measurements.
  quiet.release();
  cal.calib_ns_end = calibration_ns();
  cal.hardware_concurrency = std::thread::hardware_concurrency();
  cal.effective_parallelism = effective_parallelism(std::clamp(cal.hardware_concurrency, 2u, 4u));
  std::vector<Metric> e2e = end_to_end(eps, quiet, ref);
  std::vector<Metric> per_layer;
  for (const auto& [name, unit] : kPerLayer) per_layer.push_back({name, layers[name], unit});
  const bool correct = problems.empty();

  std::size_t deploy_samples = 0;
  for (const Episode& e : eps) deploy_samples += e.deploys.size();

  // Full record: calibration, every metric, the gate, per-episode samples.
  std::ostringstream rec;
  rec << "{\n  \"workload\": " << json_str(a.workload) << ",\n  \"seed\": " << a.seed
      << ",\n  \"trace\": " << (a.trace ? 1 : 0) << ",\n  \"host\": {\"compiler\": "
      << json_str(__VERSION__) << ", \"build_type\": " << json_str(PERF_BUILD_TYPE)
      << ", \"optimized\": true, \"hardware_concurrency\": " << cal.hardware_concurrency
      << ", \"effective_parallelism\": " << cal.effective_parallelism
      << ", \"calibration_ns_start\": " << cal.calib_ns_start
      << ", \"calibration_ns_end\": " << cal.calib_ns_end << "},\n  \"episodes\": "
      << eps.size() << ",\n  \"deploy_samples\": " << deploy_samples
      << ",\n  \"wall_s\": " << seconds_since(run_start)
      << ",\n  \"correct\": " << (correct ? "true" : "false") << ",\n  \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) rec << (i ? ", " : "") << json_str(problems[i]);
  rec << "],\n  \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) rec << (i ? ", " : "") << json_str(notes[i]);
  rec << "],\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"failed_ops_ratio\": "
      << (attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0)
      << ",\n  \"fingerprint\": " << json_str(fingerprint)
      << ",\n  \"end_to_end\": " << metrics_json(e2e)
      << ",\n  \"per_layer\": " << metrics_json(per_layer)
      << ",\n  \"attribution_gap\": " << json_str(gap_note) << ",\n  \"episode_host_s\": [";
  for (std::size_t i = 0; i < untraced.size(); ++i) rec << (i ? ", " : "") << untraced[i].seconds();
  rec << "],\n  \"episode_timed_s\": [";
  for (std::size_t i = 0; i < eps.size(); ++i) {
    rec << (i ? ", " : "") << "[" << eps[i].timed.seconds() << ", " << quiet.quiet_s(eps[i].timed)
        << "]";
  }
  rec << "],\n  \"probe_points\": " << quiet.json() << "\n}\n";
  const auto results = out_dir / "results";
  std::filesystem::create_directories(results);
  const std::string stem =
      a.workload + "-s" + std::to_string(a.seed) + "-t" + (a.trace ? "1" : "0");
  std::ofstream(results / (stem + ".json")) << rec.str();
  if (a.trace) {
    std::filesystem::create_directories(out_dir / "traces");
    std::ofstream(out_dir / "traces" / (stem + ".json")) << tracer.chrome_json();
  }

  for (const auto& p : problems) std::fprintf(stderr, "gate: %s\n", p.c_str());
  if (!gap_note.empty()) std::fprintf(stderr, "attribution: %s\n", gap_note.c_str());
  const auto& shown = a.trace ? per_layer : e2e;
  for (const auto& m : shown) {
    std::printf("%-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics_json(shown).c_str());
  return 0;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "escape_perf: refusing to measure a build without optimisation\n");
  return 3;
#endif
  perf::Args args;
  if (!perf::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload chain_forwarding|fattree_churn|chain_lifecycle "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perf::run(args);
}
