#include "util/event.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace escape {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

using detail::EventRecord;

constexpr std::uint64_t kPending = EventRecord::kPending;
constexpr std::size_t kChunkRecords = 256;  // records per slab chunk
constexpr std::size_t kRefillRecords = 64;  // records moved pool -> scheduler at once
// A scheduler holding more free records than this hands half back to the
// pool. Only mailbox traffic, whose records are armed by the sending
// shard and recycled by the receiving one, makes a free list grow.
constexpr std::size_t kFreeCap = 4096;

/// Process-wide slab of event records. Chunks are never freed (the pool
/// itself is deliberately leaked), which is what lets a handle read its
/// record's state word at any time, even after its scheduler is gone.
struct RecordPool {
  std::mutex mu;
  EventRecord* free = nullptr;
  std::vector<std::unique_ptr<EventRecord[]>> chunks;
};

RecordPool& record_pool() {
  static auto* pool = new RecordPool;
  return *pool;
}

/// Unlinks up to `n` (>= 1) records from the front of the non-empty
/// `list`; returns the last one unlinked (the run starts at the old
/// head) and the run's length in `taken`.
EventRecord* detach(EventRecord*& list, std::size_t n, std::size_t& taken) {
  EventRecord* tail = list;
  taken = 1;
  while (taken < n && tail->next_free != nullptr) {
    tail = tail->next_free;
    ++taken;
  }
  list = tail->next_free;
  tail->next_free = nullptr;
  return tail;
}

/// Hands `n` records of `list` back to the pool.
void give_back(EventRecord*& list, std::size_t n, std::size_t& count) {
  if (list == nullptr || n == 0) return;
  EventRecord* head = list;
  std::size_t taken = 0;
  EventRecord* tail = detach(list, n, taken);
  count -= taken;
  auto& pool = record_pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  tail->next_free = pool.free;
  pool.free = head;
}
}  // namespace

void EventHandle::cancel() {
  if (rec_ == nullptr) return;
  // Read the counter before the CAS: once the pending bit is cleared the
  // firing side may recycle the record and re-point `live` at another
  // scheduler. A stale read is harmless because the CAS then fails.
  std::atomic<std::int64_t>* live = rec_->live.load(std::memory_order_relaxed);
  std::uint64_t expected = (gen_ << 1) | kPending;
  if (rec_->state.compare_exchange_strong(expected, gen_ << 1, std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
    live->fetch_sub(1, std::memory_order_acq_rel);
  }
}

EventScheduler::~EventScheduler() {
  // Recycling bumps every generation, so handles that outlive the
  // scheduler report not-pending and cancel as no-ops. A callback's
  // destructor may schedule onto this dying queue; loop until drained.
  while (!heap_.empty()) {
    std::vector<Key> keys;
    keys.swap(heap_);
    for (const Key& k : keys) recycle(k.rec);
  }
  give_back(free_, free_count_, free_count_);
}

EventRecord* EventScheduler::refill() {
  auto& pool = record_pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.free == nullptr) {
    auto chunk = std::make_unique<EventRecord[]>(kChunkRecords);
    for (std::size_t i = 0; i + 1 < kChunkRecords; ++i) chunk[i].next_free = &chunk[i + 1];
    pool.free = &chunk[0];
    pool.chunks.push_back(std::move(chunk));
  }
  free_ = pool.free;
  std::size_t taken = 0;
  detach(pool.free, kRefillRecords, taken);
  free_count_ += taken;
  return free_;
}

EventHandle EventScheduler::arm(EventScheduler& runner) {
  EventRecord* rec = free_;
  free_ = rec->next_free;
  --free_count_;
  rec->live.store(&runner.live_, std::memory_order_relaxed);
  const std::uint64_t gen = rec->state.load(std::memory_order_relaxed) >> 1;
  rec->state.store((gen << 1) | kPending, std::memory_order_release);
  runner.live_.fetch_add(1, std::memory_order_acq_rel);
  return EventHandle{rec, gen};
}

void EventScheduler::recycle(EventRecord* rec) {
  const std::uint64_t gen = rec->state.load(std::memory_order_relaxed) >> 1;
  rec->state.store((gen + 1) << 1, std::memory_order_release);
  rec->cb.reset();
  rec->next_free = free_;
  free_ = rec;
  if (++free_count_ > kFreeCap) give_back(free_, kFreeCap / 2, free_count_);
}

void EventScheduler::throw_past() {
  throw std::logic_error("EventScheduler: cannot schedule into the past");
}

void EventScheduler::heap_push(const Key& key) {
  heap_.push_back(key);
  Key* h = heap_.data();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = key;
}

void EventScheduler::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  Key* h = heap_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    if (!before(h[best], last)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = last;
}

void EventScheduler::reap_cancelled() {
  while (!heap_.empty()) {
    EventRecord* rec = heap_.front().rec;
    if (rec->state.load(std::memory_order_acquire) & kPending) return;
    heap_pop();
    recycle(rec);
  }
}

bool EventScheduler::pop_and_run() {
  while (!heap_.empty()) {
    const Key key = heap_.front();
    heap_pop();
    EventRecord* rec = key.rec;
    // Claim the event. A cancel may run on another thread, so the claim
    // is a fetch_and racing the canceller's CAS: either the cancel wins
    // (we skip the entry; the canceller adjusted the counter) or we do
    // (the cancel becomes a no-op and the decrement is ours).
    const std::uint64_t claimed = rec->state.fetch_and(~kPending, std::memory_order_acq_rel);
    if ((claimed & kPending) == 0) {
      recycle(rec);
      continue;
    }
    live_.fetch_sub(1, std::memory_order_acq_rel);
    now_ = key.when;
    ++executed_;
    digest_ = (digest_ ^ key.when) * kFnvPrime;
    digest_ = (digest_ ^ key.seq) * kFnvPrime;
    Callback cb = std::move(rec->cb);
    recycle(rec);
    cb();
    return true;
  }
  return false;
}

void EventScheduler::check_direct_run() const {
  if (owner_ != nullptr) {
    throw std::logic_error(
        "EventScheduler: a shard queue owned by a ShardedScheduler must be run "
        "through its owner (use the ShardedScheduler's run methods)");
  }
}

bool EventScheduler::step() {
  check_direct_run();
  return pop_and_run();
}

std::size_t EventScheduler::run(std::size_t max_events) {
  check_direct_run();
  std::size_t ran = 0;
  while (ran < max_events && pop_and_run()) ++ran;
  return ran;
}

std::size_t EventScheduler::run_until(SimTime deadline, std::size_t max_events) {
  check_direct_run();
  std::size_t ran = 0;
  while (ran < max_events) {
    reap_cancelled();
    if (heap_.empty() || heap_.front().when > deadline) break;
    if (pop_and_run()) ++ran;
  }
  if (now_ < deadline) now_ = deadline;
  return ran;
}

std::size_t EventScheduler::run_window(SimTime bound, std::size_t max_events) {
  std::size_t ran = 0;
  while (ran < max_events) {
    reap_cancelled();
    if (heap_.empty() || heap_.front().when >= bound) break;
    if (pop_and_run()) ++ran;
  }
  return ran;
}

SimTime EventScheduler::next_event_time() {
  reap_cancelled();
  return heap_.empty() ? kNoEvent : heap_.front().when;
}

}  // namespace escape
