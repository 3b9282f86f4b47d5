// Discrete-event scheduler: the virtual clock driving the emulated
// environment (links, Click timers, OpenFlow timeouts, traffic sources,
// NETCONF transport).
//
// One EventScheduler is a single sequential, deterministic event queue:
// events at equal timestamps fire in scheduling order (FIFO tie-break
// via a monotonically increasing sequence number, one per schedule_at or
// mailbox injection). Handles allow cancellation, which is how Click
// timers are unscheduled and flow-entry timeouts are refreshed.
//
// Cost model: scheduling, firing and cancelling an event allocate
// nothing and touch no reference count.
//   - Each event lives in an EventRecord: a slot carved from a
//     process-wide slab and recycled through the scheduler's free list.
//     A record holds the callback and one atomic word,
//     `generation << 1 | pending`.
//   - The queue is a 4-ary min-heap of 24-byte (when, seq, record) keys;
//     the callbacks never move inside the heap.
//   - EventCallback is a move-only callable with 48 bytes of inline
//     storage. A callable that is larger, over-aligned or whose move can
//     throw spills to one heap allocation; every lambda the data path
//     schedules (a `this` pointer plus a few words, a moved PacketBatch)
//     fits inline. EventScheduler::schedule builds the callable directly
//     in the record (an EventCallback, e.g. from the ShardedScheduler
//     facade, is moved there), and it is moved out just before it runs;
//     it is never copied.
//
// Handles. An EventHandle is a {record, generation} pair. cancel() is a
// compare-and-swap from `generation|pending` to `generation`; the
// scheduler claims an event it fires with one atomic fetch_and that
// clears the pending bit. Exactly one of the two succeeds, so a handle
// cancelled from another thread than the one firing the event -- for a
// standalone scheduler as for a shard of a ShardedScheduler -- keeps the
// pending count exact and never races the callback: whoever clears the
// bit owns the decrement of the scheduler's one atomic pending counter.
// A record is recycled only after its pending bit is clear, and
// recycling bumps the generation, so a stale handle -- whose event
// already fired or was cancelled and whose slot now carries a newer
// event -- fails the CAS and is a no-op, and pending() reports false.
// Slab memory is never returned to the system: a handle can always read
// its slot's word, and a scheduler's destructor bumps the generation of
// every record it still holds, so cancel() and pending() on a handle
// that outlived its scheduler are safe no-ops.
//
// For parallel execution the network is partitioned into shards, each
// with its own EventScheduler, driven together by a ShardedScheduler
// (util/sharded_event.hpp). A standalone EventScheduler (the shards=1
// special case) behaves exactly as before; when owned by a
// ShardedScheduler it becomes one shard's queue and must only be
// advanced through the owner.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace escape {

class EventScheduler;
class ShardedScheduler;

/// Move-only type-erased `void()` callable with kInlineBytes of inline
/// storage; larger callables spill to one heap allocation.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    construct(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept { take(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  /// Precondition: holds a callable.
  void operator()() { ops_->invoke(buf_); }

  /// Replaces the held callable with `f`, built in place; an
  /// EventCallback argument is moved in rather than wrapped.
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventCallback>) {
      static_assert(!std::is_lvalue_reference_v<F>, "EventCallback is move-only: std::move it");
      *this = std::move(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroys the held callable (if any).
  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-constructs into dst and destroys src; null means a bitwise
    // copy of the buffer relocates the callable.
    void (*relocate)(void* dst, void* src) noexcept;
    // Null means trivially destructible.
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(void*) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* buf) { (*std::launder(static_cast<D*>(buf)))(); },
      kTrivial<D> ? nullptr
                  : +[](void* dst, void* src) noexcept {
                      D* from = std::launder(static_cast<D*>(src));
                      ::new (dst) D(std::move(*from));
                      from->~D();
                    },
      kTrivial<D> ? nullptr
                  : +[](void* buf) noexcept { std::launder(static_cast<D*>(buf))->~D(); }};

  template <typename D>
  static D* spilled(void* buf) {
    D* p;
    std::memcpy(&p, buf, sizeof p);
    return p;
  }

  template <typename D>
  static constexpr Ops kHeapOps{[](void* buf) { (*spilled<D>(buf))(); }, nullptr,
                                [](void* buf) noexcept { delete spilled<D>(buf); }};

  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    static_assert(std::is_invocable_r_v<void, D&>, "an event callback takes no arguments");
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* spilled = new D(std::forward<F>(f));
      std::memcpy(buf_, &spilled, sizeof spilled);
      ops_ = &kHeapOps<D>;
    }
  }

  void take(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

namespace detail {

/// One event slot. `state` is `generation << 1 | pending`; `live` points
/// at the cancel counter of the scheduler whose pending count this event
/// is in (atomic because a stale handle may read it while the slot is
/// being reused by another thread; the CAS on `state` decides whether
/// the read value is used). `next_free` links the slot while it is
/// recycled.
struct EventRecord {
  static constexpr std::uint64_t kPending = 1;  // low bit of `state`

  std::atomic<std::uint64_t> state{0};
  std::atomic<std::atomic<std::int64_t>*> live{nullptr};
  EventRecord* next_free = nullptr;
  EventCallback cb;
};

}  // namespace detail

/// Cancellable handle to a scheduled event: a {record, generation} pair.
/// Copies refer to the same event. All operations are safe on a
/// default-constructed handle, after the event fired or was cancelled,
/// after its scheduler was destroyed, and from another thread than the
/// one running the scheduler.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel();

  /// True if the event is still scheduled to fire.
  bool pending() const {
    return rec_ != nullptr && rec_->state.load(std::memory_order_acquire) ==
                                  ((gen_ << 1) | detail::EventRecord::kPending);
  }

 private:
  friend class EventScheduler;
  friend class ShardedScheduler;
  EventHandle(detail::EventRecord* rec, std::uint64_t gen) : rec_(rec), gen_(gen) {}
  detail::EventRecord* rec_ = nullptr;
  std::uint64_t gen_ = 0;
};

/// A virtual-time event queue.
class EventScheduler {
 public:
  using Callback = EventCallback;

  /// Returned by next_event_time() when the queue is empty.
  static constexpr SimTime kNoEvent = ~SimTime{0};

  EventScheduler() = default;
  ~EventScheduler();
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules callable `f` to run `delay` nanoseconds from now.
  template <typename F>
  EventHandle schedule(SimDuration delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Schedules callable `f` at an absolute virtual time (must be >=
  /// now()). `f` is built directly in the event's record; an
  /// EventCallback is moved there.
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& f) {
    if (when < now_) throw_past();
    // The record stays on the free list until arm() takes it, so a
    // throwing constructor leaves nothing behind.
    free_record()->cb.emplace(std::forward<F>(f));
    EventHandle handle = arm(*this);
    inject(when, handle.rec_);
    return handle;
  }

  /// Runs events until the queue is empty. Returns the number of events
  /// executed. `max_events` guards against runaway periodic events.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= deadline, then advances the clock to
  /// the deadline even if the queue drained earlier. Returns events run.
  std::size_t run_until(SimTime deadline, std::size_t max_events = SIZE_MAX);

  /// Runs for `duration` of virtual time from the current clock.
  std::size_t run_for(SimDuration duration, std::size_t max_events = SIZE_MAX) {
    return run_until(now_ + duration, max_events);
  }

  /// Executes the single earliest pending event, if any. Returns whether
  /// an event ran.
  bool step();

  /// Number of pending (non-cancelled, not yet fired) events.
  std::size_t pending_events() const {
    return static_cast<std::size_t>(live_.load(std::memory_order_acquire));
  }

  bool empty() const { return pending_events() == 0; }

  /// Total number of events executed since construction.
  std::uint64_t executed_events() const { return executed_; }

  /// FNV-1a digest over every executed event's (timestamp, sequence)
  /// pair, in execution order. Two runs over the same shard executed
  /// the same events in the same order iff the digests match -- the
  /// determinism regression tests compare this across thread counts.
  std::uint64_t order_digest() const { return digest_; }

  // --- sharding support ----------------------------------------------------

  /// The ShardedScheduler driving this queue as one of its shards
  /// (nullptr for a standalone scheduler).
  ShardedScheduler* owner() const { return owner_; }

  /// This queue's shard index within its owner (0 when standalone).
  std::size_t shard_id() const { return shard_id_; }

  /// Timestamp of the earliest pending event (kNoEvent when empty).
  /// Lazily reaps cancelled heap entries.
  SimTime next_event_time();

 private:
  friend class ShardedScheduler;

  struct Key {
    SimTime when;
    std::uint64_t seq;
    detail::EventRecord* rec;
  };
  static bool before(const Key& a, const Key& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  void heap_push(const Key& key);
  void heap_pop();

  /// Pops cancelled keys off the top of the heap, recycling their records.
  void reap_cancelled();

  bool pop_and_run();

  /// Runs events with timestamp < `bound` (exclusive). The clock only
  /// advances as events fire -- it is NOT pushed to the bound, so a
  /// drained shard's clock equals its last executed event, exactly as
  /// in a sequential run. The ShardedScheduler window loop drives this.
  std::size_t run_window(SimTime bound, std::size_t max_events);

  [[noreturn]] static void throw_past();

  /// The record the next arm() takes: the head of this scheduler's free
  /// list, refilled from the slab when empty. Only the thread that owns
  /// this scheduler's free list may call this or arm().
  detail::EventRecord* free_record() { return free_ != nullptr ? free_ : refill(); }
  detail::EventRecord* refill();

  /// Takes free_record() (its callback already stored), marks it pending
  /// and counts it in the pending events of `runner`, the scheduler that
  /// will run it (another shard's for mailbox posts).
  EventHandle arm(EventScheduler& runner);

  /// Queues an armed record, assigning the next local sequence number.
  /// The owner also uses this to move mailbox events into this shard's
  /// queue at a synchronization barrier (records cancelled while in the
  /// mailbox are recycled instead, and take no sequence number).
  void inject(SimTime when, detail::EventRecord* rec) { heap_push(Key{when, next_seq_++, rec}); }

  /// Bumps the record's generation (clearing its pending bit), destroys
  /// any callable it still holds and returns it to the free list. After
  /// this no earlier handle can reach the slot's next event.
  void recycle(detail::EventRecord* rec);

  /// Throws when this queue is owned by a multi-shard scheduler: shard
  /// queues may only be advanced through the owner's window protocol.
  void check_direct_run() const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
  // Pending events. Atomic: cancels and other shards' mailbox posts
  // adjust it from any thread.
  std::atomic<std::int64_t> live_{0};
  std::vector<Key> heap_;  // 4-ary min-heap on (when, seq)
  detail::EventRecord* free_ = nullptr;
  std::size_t free_count_ = 0;
  ShardedScheduler* owner_ = nullptr;
  std::size_t shard_id_ = 0;
};

/// Index of the shard currently executing on this thread (0 when no
/// sharded run is in progress -- the main thread and standalone
/// schedulers count as shard 0). The observability layer keys its
/// per-shard trace rings off this.
std::size_t current_shard_id();

}  // namespace escape
