// The elastic-scaling policy engine: closes the loop from the metrics
// plane back into the orchestrator. On a virtual-time tick it samples a
// Click handler (through NETCONF getVNFInfo, supplied by the host via
// Hooks::sample) across a chain's current VNF instances and compares the
// per-instance load against the policy thresholds. A threshold must hold
// for `sustain_ticks` consecutive ticks (hysteresis) and the chain must
// be outside its cooldown window before a scale decision fires; the
// decision itself -- the make-before-break migration -- is delegated back
// to the host through Hooks::scale_to.
//
// The engine is deliberately pure policy: it owns no network, no RPC
// clients and no chain lifecycle. That keeps every decision a
// deterministic function of the sampled values and virtual time (the
// sharded-engine digest tests rely on this), and makes the hysteresis
// logic unit-testable with synthetic hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/event.hpp"
#include "util/logging.hpp"
#include "util/result.hpp"

namespace escape::orchestrator {

/// One scaling rule: watches `handler` of the chain's VNF `vnf`.
struct ScalingPolicy {
  std::string vnf;                    // SG node id the policy governs
  std::string handler = "fm.lookups"; // "element.handler" sampled per instance
  /// true: the handler is a monotone counter and the metric is its
  /// per-second rate between ticks; false: the handler value is used
  /// directly (a level, e.g. "fm.flows").
  bool rate = true;
  double scale_out_above = 0;  // per-instance metric above this -> out
  double scale_in_below = 0;   // per-instance metric below this -> in
  int sustain_ticks = 3;       // consecutive ticks before acting
  SimDuration cooldown = 200 * timeunit::kMillisecond;
  std::size_t min_instances = 1;
  std::size_t max_instances = 4;
};

struct AutoScalerOptions {
  SimDuration tick = 50 * timeunit::kMillisecond;
  /// In-flight drain window the migration engine waits between steering
  /// cut-over and flow-state export (carried here so one JSON document
  /// configures the whole scaling plane).
  SimDuration drain = 5 * timeunit::kMillisecond;
  std::vector<ScalingPolicy> policies;
};

/// Parses the `escape-run --autoscale FILE` document:
///
///   {
///     "tick_ms": 50, "drain_ms": 5,
///     "policies": [
///       {"vnf": "nat", "handler": "fm.lookups", "mode": "rate",
///        "scale_out_above": 4000, "scale_in_below": 500,
///        "sustain_ticks": 3, "cooldown_ms": 200,
///        "min_instances": 1, "max_instances": 4}
///     ]
///   }
Result<AutoScalerOptions> autoscale_options_from_json(const std::string& text);

class AutoScaler {
 public:
  struct Hooks {
    /// Sums `policy.handler` across the chain's current instances of
    /// `policy.vnf`; asynchronous (NETCONF round-trips).
    std::function<void(std::uint32_t chain, const ScalingPolicy& policy,
                       std::function<void(Result<double>)>)>
        sample;
    /// Current instance count of the governed VNF.
    std::function<std::size_t(std::uint32_t chain)> instances;
    /// True when the chain may scale now (ACTIVE, not degraded or
    /// already migrating).
    std::function<bool(std::uint32_t chain)> eligible;
    /// Executes the scale decision (the make-before-break migration).
    std::function<void(std::uint32_t chain, const ScalingPolicy& policy, std::size_t target,
                       std::function<void(Status)>)>
        scale_to;
  };

  AutoScaler(EventScheduler& scheduler, AutoScalerOptions options, Hooks hooks);
  ~AutoScaler();

  AutoScaler(const AutoScaler&) = delete;
  AutoScaler& operator=(const AutoScaler&) = delete;

  /// Puts `chain_id` under `policy`. One policy per chain.
  void watch_chain(std::uint32_t chain_id, ScalingPolicy policy);
  void unwatch_chain(std::uint32_t chain_id);
  bool watching(std::uint32_t chain_id) const { return chains_.count(chain_id) > 0; }

  /// Starts / stops the periodic sampling loop.
  void start();
  void stop();
  bool running() const { return running_; }

  const AutoScalerOptions& options() const { return options_; }

  std::uint64_t scale_out_decisions() const { return scale_out_decisions_; }
  std::uint64_t scale_in_decisions() const { return scale_in_decisions_; }
  std::uint64_t failed_decisions() const { return failed_decisions_; }

 private:
  struct ChainWatch {
    ScalingPolicy policy;
    double last_raw = 0;    // previous tick's counter (rate mode)
    bool have_last = false;
    int high_ticks = 0;     // consecutive ticks above scale_out_above
    int low_ticks = 0;      // consecutive ticks below scale_in_below
    bool in_flight = false; // a scale_to is running; skip sampling
    SimTime last_action = 0;
    bool acted = false;     // last_action is meaningful
  };

  void tick();
  void evaluate(std::uint32_t chain_id, ChainWatch& watch, double raw);

  EventScheduler* scheduler_;
  AutoScalerOptions options_;
  Hooks hooks_;
  std::map<std::uint32_t, ChainWatch> chains_;
  bool running_ = false;
  std::uint64_t scale_out_decisions_ = 0;
  std::uint64_t scale_in_decisions_ = 0;
  std::uint64_t failed_decisions_ = 0;
  // Pending tick/sample lambdas no-op once the scaler is destroyed.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Logger log_{"orchestrator.autoscale"};
};

}  // namespace escape::orchestrator
