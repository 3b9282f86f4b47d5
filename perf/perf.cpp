#include "perf.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "net/builder.hpp"
#include "net/packet_pool.hpp"

namespace perf {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// --- QuietClock ------------------------------------------------------------------

namespace {

/// Four independent xorshift chains kept in scalar registers: they need
/// several integer ports every cycle, so the probe slows down with the
/// simulator when the core is shared, while a single chain (the
/// calibration loop) hardly moves. Returns host nanoseconds.
double probe_ns() {
  const auto t0 = Clock::now();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 1'000'000; ++i) {
    a ^= a << 13;
    b ^= b << 13;
    c ^= c << 13;
    d ^= d << 13;
    a ^= a >> 7;
    b ^= b >> 7;
    c ^= c >> 7;
    d ^= d >> 7;
    a ^= a << 17;
    b ^= b << 17;
    c ^= c << 17;
    d ^= d << 17;
    asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
  }
  static std::atomic<std::uint64_t> sink{0};
  sink += a + b + c + d;
  return seconds_since(t0) * 1e9;
}

bool pin(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

QuietClock::QuietClock() {
  have_mask_ = sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0;
}

void QuietClock::tick() {
  if (points_.empty() || seconds_since(points_.back().end) >= kProbeEvery) probe_point();
}

void QuietClock::probe_point() {
  Point p;
  p.start = Clock::now();
  const int was = sched_getcpu();
  int best = -1;
  for (int cpu = 0; have_mask_ && cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu)) continue;
    const double ns = probe_ns();
    if (cpu == was) p.left = ns;
    if (best < 0 || ns < p.right) best = cpu, p.right = ns;
  }
  if (best < 0) {
    p.right = probe_ns();  // no CPU could be chosen: probe where the process runs
  } else {
    pin(best);
  }
  if (p.left == 0) p.left = p.right;
  p.end = Clock::now();
  points_.push_back(p);
}

double QuietClock::quiet_s(const Interval& i) const {
  if (points_.size() < 2) return i.seconds();
  // Stretch k runs from points_[k].end to points_[k + 1].start; the
  // first one that can overlap `i` ends after i.start.
  const auto next = std::upper_bound(
      points_.begin() + 1, points_.end(), i.start,
      [](Clock::time_point t, const Point& p) { return t < p.start; });
  double out = 0;
  for (auto k = static_cast<std::size_t>(next - points_.begin()) - 1;
       k + 1 < points_.size() && points_[k].end < i.end; ++k) {
    const auto lo = std::max(i.start, points_[k].end);
    const auto hi = std::min(i.end, points_[k + 1].start);
    if (hi <= lo) continue;
    const double contended = (points_[k].right + points_[k + 1].left) / 2;
    out += Interval{lo, hi}.seconds() * kQuietProbeNs / contended;
  }
  return out;
}

void QuietClock::release() {
  if (have_mask_) sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

std::string QuietClock::json() const {
  std::string out = "[";
  char buf[96];
  for (std::size_t k = 0; k < points_.size(); ++k) {
    std::snprintf(buf, sizeof(buf), "%s[%.4f, %.0f, %.0f]", k ? ", " : "",
                  Interval{points_.front().start, points_[k].start}.seconds(), points_[k].left,
                  points_[k].right);
    out += buf;
  }
  return out + "]";
}

QuietClock& quiet_clock() {
  static QuietClock clock;
  return clock;
}

// --- Tracer ------------------------------------------------------------------

int Tracer::begin(const char* name) {
  if (!enabled) return -1;
  Span s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  s.parent = open_;
  s.group = group;
  spans.push_back(std::move(s));
  open_ = static_cast<int>(spans.size()) - 1;
  return open_;
}

void Tracer::end(int id) {
  if (id < 0) return;
  Span& s = spans[static_cast<std::size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  open_ = s.parent;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double self = static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]);
    out[spans[i].name] += self / 1e6;
  }
  return out;
}

double Tracer::median_ms(const std::string& name) const {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (s.name == name) ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return median(ms);
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"group\":%llu}}",
                  i ? ",\n" : "", s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.group));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// --- substrates --------------------------------------------------------------

namespace {

SimDuration jitter(Rng& rng, SimDuration nominal, double share) {
  const double f = 1.0 + share * (2.0 * rng.next_double() - 1.0);
  return static_cast<SimDuration>(static_cast<double>(nominal) * f);
}

}  // namespace

EnvironmentOptions seeded_options(Rng& rng) {
  EnvironmentOptions opts;
  opts.threads = 1;
  opts.enable_l2_learning = false;
  opts.control_delay = jitter(rng, 100 * timeunit::kMicrosecond, 0.05);
  opts.netconf_delay = jitter(rng, 200 * timeunit::kMicrosecond, 0.05);
  return opts;
}

netemu::LinkConfig seeded_link(Rng& rng) {
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = jitter(rng, 100 * timeunit::kMicrosecond, 0.1);
  return cfg;
}

void build_linear(Environment& env, Rng& rng) {
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  const auto name = [](char kind, int i) { return std::string(1, kind) + std::to_string(i); };
  for (int i = 1; i <= 4; ++i) {
    net.add_switch(name('s', i));
    net.add_container(name('c', i), 4.0, 32);
    (void)net.add_link(name('c', i), 0, name('s', i), 3, seeded_link(rng));
    if (i > 1) (void)net.add_link(name('s', i - 1), 2, name('s', i), 1, seeded_link(rng));
  }
  (void)net.add_link("sap1", 0, "s1", 10, seeded_link(rng));
  (void)net.add_link("sap2", 0, "s4", 10, seeded_link(rng));
}

// --- traffic -----------------------------------------------------------------

net::Packet udp_frame(const netemu::Host& src, const netemu::Host& dst, std::uint16_t sport,
                      std::uint16_t dport) {
  return net::make_udp_packet(src.mac(), dst.mac(), src.ip(), dst.ip(), sport, dport,
                              kFrameBytes);
}

void Generator::start(EventScheduler& sched) {
  next_ = 0;
  if (schedule.empty()) return;
  sched.schedule_at(schedule.front().at, [this, &sched] { fire(sched); });
}

void Generator::fire(EventScheduler& sched) {
  const Send& s = schedule[next_];
  Tuple& t = tuples[s.tuple];
  net::Packet p = net::default_packet_pool().acquire_copy(t.proto);
  p.set_seq(next_);
  p.set_timestamp(sched.now());
  t.src->send(std::move(p));
  if (sampler && next_ % 64 == 0) sampler();
  if (++next_ < schedule.size()) {
    sched.schedule_at(schedule[next_].at, [this, &sched] { fire(sched); });
  }
}

void record_latency(Environment& env, netemu::Host& host, std::vector<double>& out_us) {
  host.on_receive([&env, &out_us](const net::Packet& p) {
    if (!p.has_timestamp()) return;
    out_us.push_back(static_cast<double>(env.scheduler().now() - p.timestamp()) /
                     timeunit::kMicrosecond);
  });
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

}  // namespace perf
