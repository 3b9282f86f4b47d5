// Shared pieces of the end-to-end benchmark: host clocks, sample
// statistics, the span recorder of the traced run, seeded substrates and
// the virtual-time traffic generator. See NOTES.md for what each workload
// measures and why.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "escape/environment.hpp"
#include "net/packet.hpp"
#include "util/random.hpp"

namespace perf {

using namespace escape;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
/// 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(const std::vector<double>& values) { return percentile(values, 50); }

// --- contention --------------------------------------------------------------

/// A host-time interval.
struct Interval {
  Clock::time_point start, end;
  double seconds() const { return std::chrono::duration<double>(end - start).count(); }
};

/// The run's contention timeline. Another tenant on the same physical
/// core slows the simulator by up to ~2x, in bursts that change within a
/// second and differ from CPU to CPU (NOTES.md, "Contention"). At each
/// probe point the process probes every CPU it may use and moves to the
/// quietest; quiet_s() turns a host-time interval into seconds on a quiet
/// core of the reference VM.
class QuietClock {
 public:
  /// The probe's time on an uncontended core of the reference VM.
  static constexpr double kQuietProbeNs = 3.1e6;
  /// A probe point is due this many seconds after the last one.
  static constexpr double kProbeEvery = 0.2;

  QuietClock();
  ~QuietClock() { release(); }

  /// Whether tick_inside() may make probe points, i.e. inside episodes,
  /// between scheduler segments. Off in traced runs, whose spans and
  /// overhead must not contain probes.
  bool inside_episodes = false;

  /// Makes a probe point if kProbeEvery has passed since the last one.
  void tick();
  void tick_inside() {
    if (inside_episodes) tick();
  }
  void probe_point();

  /// Quiet-core seconds of `i`, which must lie between the first and the
  /// last probe point: the probe points' own time is left out, and each
  /// stretch between two points is scaled by kQuietProbeNs over the mean
  /// of the probes of its CPU at its two ends.
  double quiet_s(const Interval& i) const;

  /// Gives the process every CPU it may use again.
  void release();

  /// Every probe point as [start s since the first, probe of the CPU left
  /// (ns), probe of the CPU chosen (ns)].
  std::string json() const;

 private:
  struct Point {
    Clock::time_point start, end;
    double left = 0, right = 0;
  };
  std::vector<Point> points_;
  cpu_set_t allowed_;
  bool have_mask_ = false;
};

/// The process's one QuietClock: the main loop and the workloads'
/// scheduler segments both make its probe points.
QuietClock& quiet_clock();

// --- traced run ------------------------------------------------------------

/// One timed call into a module: host nanoseconds since the run started,
/// the enclosing span, and the lifecycle cycle (or episode) it belongs to.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t group = 0;
};

/// In-memory span recorder. Disabled (the untraced runs), begin() and
/// end() cost one branch; enabled, every span stays in memory until the
/// run writes them out.
class Tracer {
 public:
  bool enabled = false;
  std::uint64_t group = 0;  // id shared by the spans of one cycle/episode
  std::vector<Span> spans;

  int begin(const char* name);
  void end(int id);
  /// Host milliseconds per span name, excluding time covered by children.
  std::map<std::string, double> self_ms() const;
  /// Median host milliseconds of the spans called `name` (0 if none).
  double median_ms(const std::string& name) const;
  /// Chrome trace-event JSON of every recorded span.
  std::string chrome_json() const;

 private:
  Clock::time_point origin_ = Clock::now();
  int open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- substrates --------------------------------------------------------------

/// Per-seed control-network delays: OpenFlow channel 100 us and NETCONF
/// 200 us, each scaled by a seeded factor in [0.95, 1.05].
EnvironmentOptions seeded_options(Rng& rng);

/// Seeded data-link parameters: 1 Gb/s, delay uniform in [90, 110] us.
netemu::LinkConfig seeded_link(Rng& rng);

/// sap1 - s1 - s2 - s3 - s4 - sap2 with container cN on switch sN
/// (4.0 CPU, 32 slots), the layout of the repo's linear benches.
void build_linear(Environment& env, Rng& rng);

// --- traffic -----------------------------------------------------------------

/// A UDP 5-tuple's prototype frame between two hosts.
struct Tuple {
  netemu::Host* src = nullptr;
  net::Packet proto;
};

/// Sends frames on a precomputed virtual-time schedule through
/// Host::send, one event per frame. Offered load is read back from
/// Host::tx_packets(); the sink hosts record one-way latency exactly.
class Generator {
 public:
  struct Send {
    SimTime at = 0;
    std::uint32_t tuple = 0;
  };

  std::vector<Tuple> tuples;
  std::vector<Send> schedule;  // sorted by .at
  /// Called every 64 sends (traced run: link queue sampling).
  std::function<void()> sampler;

  /// Schedules the first send on `sched`; the rest chain from it.
  void start(EventScheduler& sched);
  SimTime last_send() const { return schedule.empty() ? 0 : schedule.back().at; }

 private:
  void fire(EventScheduler& sched);
  std::size_t next_ = 0;
};

/// Frame of the smallest size the stack carries (64-byte UDP).
constexpr std::size_t kFrameBytes = 64;

net::Packet udp_frame(const netemu::Host& src, const netemu::Host& dst, std::uint16_t sport,
                      std::uint16_t dport);

/// Records the one-way latency (virtual us) of every frame `host` receives.
void record_latency(Environment& env, netemu::Host& host, std::vector<double>& out_us);

/// Zipf(s) sampler over n ranks.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perf
