// Traffic shaping and policing elements.
#include "click/elements.hpp"
#include "click/router.hpp"
#include "util/strings.hpp"

namespace escape::click {

// --- BandwidthShaper -----------------------------------------------------------

BandwidthShaper::BandwidthShaper() { declare_ports({PortMode::kPull}, {PortMode::kPull}); }

Status BandwidthShaper::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("RATE", 0)) {
    auto r = strings::parse_scaled_u64(*v);
    if (!r || *r == 0) return make_error("click.config.bad-arg", "RATE must be > 0 bytes/s");
    rate_ = *r;
  }
  if (auto v = args.keyword_u64("BURST")) burst_ = *v;
  bucket_.emplace(rate_, burst_);
  return ok_status();
}

std::optional<Packet> BandwidthShaper::pull(int) {
  if (!bucket_) bucket_.emplace(rate_, burst_);
  // Peek-free shaping: we must know the size before consuming tokens, so
  // pull the packet and, if over budget, hold it in a 1-slot staging area.
  if (staged_) {
    const SimTime now = router()->scheduler().now();
    if (!bucket_->try_consume(now, staged_->size())) return std::nullopt;
    auto p = std::move(*staged_);
    staged_.reset();
    return p;
  }
  auto p = input_pull(0);
  if (!p) return std::nullopt;
  const SimTime now = router()->scheduler().now();
  if (bucket_->try_consume(now, p->size())) return p;
  staged_ = std::move(*p);
  return std::nullopt;
}

PacketBatch BandwidthShaper::pull_batch(int, std::size_t max) {
  if (!bucket_) bucket_.emplace(rate_, burst_);
  const SimTime now = router()->scheduler().now();
  PacketBatch out(max);
  // Drain the staging slot first, then keep pulling while the bucket has
  // budget; the first unaffordable packet goes back into staging.
  if (staged_) {
    if (!bucket_->try_consume(now, staged_->size())) return out;
    out.push_back(std::move(*staged_));
    staged_.reset();
  }
  while (out.size() < max) {
    auto p = input_pull(0);
    if (!p) break;
    if (!bucket_->try_consume(now, p->size())) {
      staged_ = std::move(*p);
      break;
    }
    out.push_back(std::move(*p));
  }
  return out;
}

// --- Delay ------------------------------------------------------------------------

Delay::Delay() { declare_ports({PortMode::kPush}, {PortMode::kPush}); }

Status Delay::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("DELAY", 0)) {
    auto d = strings::parse_scaled_u64(*v);
    if (!d) return make_error("click.config.bad-arg", "DELAY must be nanoseconds");
    delay_ = *d;
  }
  return ok_status();
}

Status Delay::initialize(Router&) { return ok_status(); }

void Delay::push_batch(int, PacketBatch&& batch) {
  // One event per packet: each leaves as a batch of one, so event order
  // does not depend on how its arrivals were batched.
  for (auto& p : batch) {
    router()->scheduler().schedule(delay_, [this, p = std::move(p)]() mutable {
      output_push_batch(0, PacketBatch::of(std::move(p)));
    });
  }
}

// --- RandomSample --------------------------------------------------------------------

RandomSample::RandomSample() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("sampled", [this] { return std::to_string(sampled_); });
  add_read_handler("dropped", [this] { return std::to_string(dropped_); });
}

Status RandomSample::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("P", 0)) {
    auto p = strings::parse_double(*v);
    if (!p || *p < 0.0 || *p > 1.0) {
      return make_error("click.config.bad-arg", "P must be in [0,1]");
    }
    p_ = *p;
  }
  if (auto v = args.keyword_u64("SEED")) rng_ = Rng(*v);
  return ok_status();
}

void RandomSample::push_batch(int, PacketBatch&& batch) {
  RunEmitter out(*this, batch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng_.next_bool(p_)) {
      ++sampled_;
      out.keep(i, 0);
    } else {
      ++dropped_;
      if (output_connected(1)) out.keep(i, 1);
    }
  }
}

// --- Meter ------------------------------------------------------------------------------

Meter::Meter() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("conforming", [this] { return std::to_string(conforming_); });
  add_read_handler("exceeding", [this] { return std::to_string(exceeding_); });
}

Status Meter::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("RATE", 0)) {
    auto r = strings::parse_scaled_u64(*v);
    if (!r || *r == 0) return make_error("click.config.bad-arg", "Meter RATE must be > 0");
    rate_ = *r;
  }
  bucket_.emplace(rate_, std::max<std::uint64_t>(rate_ / 10, 1));
  return ok_status();
}

void Meter::push_batch(int, PacketBatch&& batch) {
  const SimTime now = router()->scheduler().now();
  RunEmitter out(*this, batch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (bucket_->try_consume(now, 1)) {
      ++conforming_;
      out.keep(i, 0);
    } else {
      ++exceeding_;
      out.keep(i, 1);
    }
  }
}

}  // namespace escape::click
