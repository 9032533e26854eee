// Free-list recycler for in-flight Msg objects.
//
// Every transport hop used to copy a ~136-byte Msg (two shared_ptr
// refcount bumps included) into a lambda capture, blowing past any
// small-buffer optimization and forcing a heap allocation per scheduled
// delivery. The pool hands out stable Msg* slots from 256-element blocks;
// the event captures a 16-byte Handle instead, which fits the event
// loop's inline buffer together with the destination pointer.
//
// Lifetime contract: one slot carries a message through one whole hop.
// The transport event hands the Handle to the destination node, the node
// hands it to its service-pool job, and the final handler calls `take()`
// exactly once. Every path that ends the hop early — dead destination,
// admission shed, a node that died while the message was in flight —
// calls `discard()` instead. A Handle destroyed with neither consults the
// live-pool registry: if its pool still exists, the slot goes back on the
// free list, and unless a Flush is open (a crashed node's ServerPool
// dropping its queued jobs) the pool counts it in abandoned(), so a
// missed discard() shows up in tests instead of hiding in this slow path.
// If the pool died first (an event still pending when the loop outlives
// the System in bench scaffolding), the slot is left alone; the block
// storage itself is always reclaimed by ~MsgPool. The registry is only
// touched by pool construction/destruction and by these drops, never on
// the per-hop fast path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/msg.hpp"

namespace neutrino::core {

class MsgPool {
 public:
  /// Move-only ticket for one pooled Msg. 16 bytes, nothrow-movable, so
  /// transport lambdas capturing {node*, Handle} stay inline-schedulable.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          msg_(std::exchange(other.msg_, nullptr)) {}
    Handle& operator=(Handle&& other) noexcept {
      drop();
      pool_ = std::exchange(other.pool_, nullptr);
      msg_ = std::exchange(other.msg_, nullptr);
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    // Releases the slot iff the pool is still alive (see file header).
    ~Handle() { drop(); }

    [[nodiscard]] explicit operator bool() const { return msg_ != nullptr; }
    Msg& operator*() const { return *msg_; }
    Msg* operator->() const { return msg_; }

    /// Move the message out and return the slot to the free list. Only
    /// legal while the owning pool is alive (i.e. during event dispatch).
    Msg take() {
      assert(msg_ != nullptr);
      Msg out = std::move(*msg_);
      release();
      return out;
    }

    /// End the hop without delivering: return the slot, drop the message.
    void discard() {
      assert(msg_ != nullptr);
      ++pool_->discarded_;
      release();
    }

   private:
    friend class MsgPool;
    Handle(MsgPool* pool, Msg* msg) : pool_(pool), msg_(msg) {}

    void release() {
      pool_->release(msg_);
      msg_ = nullptr;
      pool_ = nullptr;
    }

    /// Slow path for a Handle destroyed without take() or discard(): a
    /// crashed node's ServerPool dropping its queue must not strand the
    /// slot forever.
    void drop() {
      if (msg_ != nullptr) MsgPool::release_if_alive(pool_, msg_);
      pool_ = nullptr;
      msg_ = nullptr;
    }

    MsgPool* pool_ = nullptr;
    Msg* msg_ = nullptr;
  };

  MsgPool() {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(this);
  }
  ~MsgPool() {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    auto& pools = registry();
    pools.erase(std::remove(pools.begin(), pools.end(), this), pools.end());
  }
  MsgPool(const MsgPool&) = delete;
  MsgPool& operator=(const MsgPool&) = delete;

  /// Open while a crashing node drops its queued jobs: the handles those
  /// jobs held are destroyed on purpose, so they do not count as
  /// abandoned().
  class [[nodiscard]] Flush {
   public:
    explicit Flush(MsgPool& pool) : pool_(&pool) { ++pool_->flushing_; }
    ~Flush() { --pool_->flushing_; }
    Flush(const Flush&) = delete;
    Flush& operator=(const Flush&) = delete;

   private:
    MsgPool* pool_;
  };

  /// Park a message in a pooled slot for the duration of one hop.
  Handle acquire(Msg msg) {
    if (free_.empty()) {
      grow();
    } else {
      ++reused_;
    }
    Msg* slot = free_.back();
    free_.pop_back();
    *slot = std::move(msg);
    ++acquired_;
    return Handle{this, slot};
  }

  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  [[nodiscard]] std::uint64_t reused() const { return reused_; }
  /// Hops ended by discard() (dead destination, admission shed).
  [[nodiscard]] std::uint64_t discarded() const { return discarded_; }
  /// Handles destroyed with neither take() nor discard() while this pool
  /// was alive, outside a Flush. Zero in a run whose every path ends its
  /// hop explicitly.
  [[nodiscard]] std::uint64_t abandoned() const { return abandoned_; }
  [[nodiscard]] std::size_t capacity() const {
    return blocks_.size() * kBlockSize;
  }
  /// Slots currently held by live Handles (plus any abandoned ones).
  [[nodiscard]] std::size_t outstanding() const {
    return capacity() - free_.size();
  }

 private:
  static constexpr std::size_t kBlockSize = 256;

  // Live-pool registry: lets an abandoned Handle tell "my pool's node
  // crashed but the pool object lives" (release the slot) apart from "the
  // pool itself is gone" (leave it). Shards each own a pool but only the
  // owning thread drops handles into it; the mutex guards just the
  // registry vector, whose mutations happen outside the parallel phase.
  static std::mutex& registry_mutex() {
    static std::mutex m;
    return m;
  }
  static std::vector<MsgPool*>& registry() {
    static std::vector<MsgPool*> pools;
    return pools;
  }
  static void release_if_alive(MsgPool* pool, Msg* slot) {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    const auto& pools = registry();
    if (std::find(pools.begin(), pools.end(), pool) != pools.end()) {
      if (pool->flushing_ == 0) ++pool->abandoned_;
      pool->release(slot);
    }
  }

  void grow() {
    blocks_.push_back(std::make_unique<Block>());
    Msg* base = blocks_.back()->slots;
    free_.reserve(free_.size() + kBlockSize);
    for (std::size_t i = kBlockSize; i > 0; --i) free_.push_back(base + i - 1);
  }

  void release(Msg* slot) {
    *slot = Msg{};  // drop shared_ptr payloads now, not at reuse time
    free_.push_back(slot);
  }

  // Cache-line-anchored slab: the first slot of every block starts on a
  // line boundary, so the Msg stride never begins mid-line and the free
  // list hands back slots with predictable line splits.
  struct alignas(64) Block {
    Msg slots[kBlockSize];
  };

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<Msg*> free_;
  std::uint64_t acquired_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t abandoned_ = 0;
  int flushing_ = 0;
};

}  // namespace neutrino::core
