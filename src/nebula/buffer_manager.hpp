/// \file buffer_manager.hpp
/// \brief Pooled tuple-buffer allocation.
///
/// A `BufferManager` owns a bounded pool of same-shaped `TupleBuffer`s.
/// `Acquire` blocks when the pool is exhausted; `TryAcquire` does not, and
/// `AcquireOrOverflow` hands out a transient buffer instead — the form the
/// engine uses, since its worker-pool tasks must not wait for buffers other
/// tasks hold. Returned handles recycle a pooled buffer into the pool on
/// destruction.

#pragma once

#include <atomic>

#include "common/mutex.hpp"
#include "nebula/tuple_buffer.hpp"

namespace nebulameos::nebula {

/// \brief Bounded pool of tuple buffers for one schema.
class BufferManager : public std::enable_shared_from_this<BufferManager> {
 public:
  /// Creates a pool of \p pool_size buffers, each holding
  /// \p tuples_per_buffer records of \p schema.
  static std::shared_ptr<BufferManager> Create(Schema schema,
                                               size_t tuples_per_buffer,
                                               size_t pool_size);

  /// Blocks until a buffer is available, then returns it (empty, reset).
  TupleBufferPtr Acquire() NM_EXCLUDES(mutex_);

  /// Returns a buffer if one is immediately available, else nullptr.
  TupleBufferPtr TryAcquire() NM_EXCLUDES(mutex_);

  /// Returns a pooled buffer if one is available, else a transient one of
  /// the same shape that is freed rather than recycled. Never blocks.
  TupleBufferPtr AcquireOrOverflow() NM_EXCLUDES(mutex_);

  /// Buffers currently available in the pool.
  size_t available() const NM_EXCLUDES(mutex_);

  /// Total hand-outs over the pool's lifetime, overflow ones included —
  /// the pool-accounting counter behind the zero-copy fan-out tests: a
  /// branch hand-off must not draw new buffers, so this must not scale
  /// with branch count. Atomic: workers acquire concurrently while the
  /// engine snapshots `QueryStats::buffers_acquired` mid-run.
  uint64_t total_acquired() const {
    return total_acquired_.load(std::memory_order_relaxed);
  }

  /// Total buffers owned by the pool.
  size_t pool_size() const { return pool_size_; }

  /// The schema buffers are shaped for.
  const Schema& schema() const { return schema_; }

 private:
  BufferManager(Schema schema, size_t tuples_per_buffer, size_t pool_size);

  TupleBufferPtr Wrap(std::unique_ptr<TupleBuffer> buf);
  void Recycle(std::unique_ptr<TupleBuffer> buf) NM_EXCLUDES(mutex_);

  Schema schema_;
  size_t tuples_per_buffer_;
  size_t pool_size_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::vector<std::unique_ptr<TupleBuffer>> free_ NM_GUARDED_BY(mutex_);
  std::atomic<uint64_t> total_acquired_{0};
};

}  // namespace nebulameos::nebula
