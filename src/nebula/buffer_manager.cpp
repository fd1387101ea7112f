#include "nebula/buffer_manager.hpp"

namespace nebulameos::nebula {

std::shared_ptr<BufferManager> BufferManager::Create(Schema schema,
                                                     size_t tuples_per_buffer,
                                                     size_t pool_size) {
  return std::shared_ptr<BufferManager>(
      new BufferManager(std::move(schema), tuples_per_buffer, pool_size));
}

BufferManager::BufferManager(Schema schema, size_t tuples_per_buffer,
                             size_t pool_size)
    : schema_(std::move(schema)),
      tuples_per_buffer_(tuples_per_buffer),
      pool_size_(pool_size) {
  free_.reserve(pool_size_);
  for (size_t i = 0; i < pool_size_; ++i) {
    free_.push_back(
        std::make_unique<TupleBuffer>(schema_, tuples_per_buffer_));
  }
}

TupleBufferPtr BufferManager::Acquire() {
  MutexLock lock(mutex_);
  while (free_.empty()) cv_.Wait(mutex_);
  auto buf = std::move(free_.back());
  free_.pop_back();
  total_acquired_.fetch_add(1, std::memory_order_relaxed);
  lock.Unlock();
  return Wrap(std::move(buf));
}

TupleBufferPtr BufferManager::TryAcquire() {
  MutexLock lock(mutex_);
  if (free_.empty()) return nullptr;
  auto buf = std::move(free_.back());
  free_.pop_back();
  total_acquired_.fetch_add(1, std::memory_order_relaxed);
  lock.Unlock();
  return Wrap(std::move(buf));
}

TupleBufferPtr BufferManager::AcquireOrOverflow() {
  if (TupleBufferPtr buf = TryAcquire()) return buf;
  total_acquired_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<TupleBuffer>(schema_, tuples_per_buffer_);
}

size_t BufferManager::available() const {
  MutexLock lock(mutex_);
  return free_.size();
}

TupleBufferPtr BufferManager::Wrap(std::unique_ptr<TupleBuffer> buf) {
  buf->Reset();
  TupleBuffer* raw = buf.release();
  auto self = shared_from_this();
  return TupleBufferPtr(raw, [self](TupleBuffer* b) {
    self->Recycle(std::unique_ptr<TupleBuffer>(b));
  });
}

void BufferManager::Recycle(std::unique_ptr<TupleBuffer> buf) {
  {
    MutexLock lock(mutex_);
    free_.push_back(std::move(buf));
  }
  cv_.NotifyOne();
}

}  // namespace nebulameos::nebula
