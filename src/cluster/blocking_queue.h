// Unbounded MPMC blocking queue between a receive thread and a worker
// thread pool: push, blocking pop and close — all Neptune's ServiceNode
// needs.
//
// The paper's server node keeps "a service queue and a worker thread pool";
// Neptune's ServiceNode, whose workers run real handlers, uses this queue
// as that service queue. (cluster::ServerNode emulates service as a timed
// occupancy and keeps its FIFO inside its single event loop instead.)
// close() wakes all waiters and makes further pops return nullopt once
// drained, which is how node shutdown propagates to workers without
// sentinel values.
//
// Storage is a power-of-two ring buffer rather than std::deque: a deque
// allocates and frees map blocks as the head chases the tail, so even a
// bounded-occupancy queue churns the allocator in steady state. The ring
// grows geometrically to the high-water mark and is then allocation-free
// for the life of the queue.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace finelb::cluster {

template <class T>
class BlockingQueue {
 public:
  /// Pushes an item; returns false if the queue is closed.
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      if (count_ == ring_.size()) grow();
      ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(item);
      ++count_;
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return count_ != 0 || closed_; });
    if (count_ == 0) return std::nullopt;
    return pop_front_locked();
  }

  /// Closes the queue; queued items can still be popped.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  T pop_front_locked() {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return item;
  }

  void grow() {
    const std::size_t new_size = ring_.empty() ? 16 : ring_.size() * 2;
    std::vector<T> bigger(new_size);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<T> ring_;     // power-of-two capacity; index masked
  std::size_t head_ = 0;    // index of the front item
  std::size_t count_ = 0;   // occupied slots
  bool closed_ = false;
};

}  // namespace finelb::cluster
