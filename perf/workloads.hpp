// The three benchmark workloads. Each runs as repeated episodes: one
// episode builds a fresh Environment from the seed, runs the workload's
// fixed, seed-determined work, and checks the correctness gate. Host
// times vary from episode to episode; everything measured in virtual
// time must repeat exactly, so a later episode's fingerprint is compared
// with the first one's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perf.hpp"

namespace perf {

struct Episode {
  // Host time, as intervals: the run turns them into quiet-core seconds
  // once all its probe points are known (QuietClock).
  Interval setup;  // build topology + start() (+ initial deploy)
  Interval timed;  // the workload's timed phase
  std::uint64_t timed_offered = 0;
  std::uint64_t timed_delivered = 0;
  std::vector<Interval> deploys;  // per Environment::deploy() call
  std::vector<Interval> cycles;   // per lifecycle cycle

  // Virtual time (deterministic per seed).
  std::uint64_t offered = 0;    // sum of Host::tx_packets() of the senders
  std::uint64_t delivered = 0;  // sum of Host::rx_packets() of the sinks
  std::vector<double> latency_us;  // of the frames delivered in the timed phase
  std::vector<double> virt_setup_ms, virt_scale_ms, virt_recovery_ms;
  std::uint64_t order_digest = 0;
  std::uint64_t events = 0;

  // Correctness gate.
  std::uint64_t attempted = 0;  // deploy/scale/undeploy/kill/recover/restore
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed operation
  std::vector<std::string> violations;

  // Traced run only: per-layer counts and probes, and the frame stream
  // (source, destination port per frame) the stage stack replays.
  std::map<std::string, double> layer;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> frames;

  /// Every virtual-time result of the episode, as text.
  std::string fingerprint() const;
};

extern const std::vector<std::string> kWorkloads;

/// Runs one episode of `workload`. With `layers` set, also collects the
/// per-layer counts and runs the control-plane probes after the
/// fingerprinted part, so they cannot change it.
Episode run_episode(const std::string& workload, std::uint64_t seed, Tracer& tracer,
                    bool layers);

/// chain_forwarding's chain: firewall (64 deny rules the traffic never
/// hits) -> flow_nat -> dpi -> monitor, between sap1 and sap2.
sg::ServiceGraph forwarding_graph();

/// The data-plane stage stack over `frames` (see layers.cpp): adds the
/// stage metrics to `out`, describes the attribution in `gap_note`, and
/// returns an error text when a stage could not be built or lost frames.
std::string run_stage_stack(const std::vector<std::pair<std::uint16_t, std::uint16_t>>& frames,
                            Tracer& tracer, std::map<std::string, double>& out,
                            std::string& gap_note);

}  // namespace perf
