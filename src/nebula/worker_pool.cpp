#include "nebula/worker_pool.hpp"

#include <algorithm>

namespace nebulameos::nebula {

WorkerPool::WorkerPool(size_t max_workers, size_t strand_capacity,
                       ShedPolicy shed_policy)
    : max_workers_(std::max<size_t>(max_workers, 1)),
      strand_capacity_(strand_capacity),
      shed_policy_(shed_policy) {}

WorkerPool::~WorkerPool() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(mutex_);
    stop_ = true;
    threads.swap(threads_);
  }
  ready_cv_.NotifyAll();
  for (std::thread& t : threads) t.join();
}

std::unique_ptr<WorkerPool::Strand> WorkerPool::MakeStrand() {
  return std::unique_ptr<Strand>(new Strand(this));
}

WorkerPool::PostResult WorkerPool::Strand::Post(std::function<void()> task,
                                                Poster poster,
                                                bool sheddable) {
  return pool_->Post(this, std::move(task), poster, sheddable);
}

size_t WorkerPool::Strand::queued() const {
  MutexLock lock(pool_->mutex_);
  return tasks_.size();
}

WorkerPool::PostResult WorkerPool::Post(Strand* strand,
                                        std::function<void()> task,
                                        Poster poster, bool sheddable) {
  // Destroyed after the lock releases: shedding the oldest morsel drops
  // its captured buffer handles, whose recycling must not run under the
  // pool mutex.
  std::function<void()> shed;
  MutexLock lock(mutex_);
  if (stop_) return PostResult::kShed;
  // Only ingest posts shed; any post that is not shedding reports a strand
  // it filled.
  const bool sheds =
      poster == Poster::kIngest && shed_policy_ != ShedPolicy::kBlock;
  if (sheds && sheddable && strand_capacity_ > 0 &&
      strand->tasks_.size() >= strand_capacity_) {
    // Degradation instead of backpressure: make room by policy.
    tasks_shed_.fetch_add(1, std::memory_order_relaxed);
    if (shed_policy_ == ShedPolicy::kDropLate) return PostResult::kShed;
    shed = std::move(strand->tasks_.front());  // kDropOldest
    strand->tasks_.pop_front();
  }
  strand->tasks_.push_back(std::move(task));
  bool wake = false;
  if (!strand->scheduled_) {
    strand->scheduled_ = true;
    wake = Schedule({strand, nullptr});
  }
  PostResult result = PostResult::kQueued;
  if (shed) {
    result = PostResult::kShed;
  } else if (!sheds && strand_capacity_ > 0 &&
             strand->tasks_.size() >= strand_capacity_) {
    result = PostResult::kFull;
  }
  lock.Unlock();
  if (wake) ready_cv_.NotifyOne();
  return result;
}

void WorkerPool::Post(Task task) {
  MutexLock lock(mutex_);
  if (stop_) return;
  const bool wake = Schedule({nullptr, std::move(task)});
  lock.Unlock();
  if (wake) ready_cv_.NotifyOne();
}

bool WorkerPool::ParkUntilRoom(Strand* strand, Task resume) {
  MutexLock lock(mutex_);
  if (strand_capacity_ == 0 || strand->tasks_.size() < strand_capacity_) {
    return false;
  }
  strand->parked_ = std::move(resume);
  return true;
}

bool WorkerPool::Schedule(Ready entry) {
  ready_.push_back(std::move(entry));
  return WakeFor(ready_.size());
}

bool WorkerPool::Requeue(Ready entry) {
  ready_.push_back(std::move(entry));
  return WakeFor(ready_.size() - 1);
}

bool WorkerPool::WakeFor(size_t entries) {
  if (entries <= notified_ + starting_) return false;
  if (idle_ > notified_) {
    ++notified_;
    return true;
  }
  if (threads_.size() < max_workers_ && !stop_) {
    ++starting_;
    threads_.emplace_back([this] { WorkerMain(); });
  }
  return false;
}

void WorkerPool::WorkerMain() {
  MutexLock lock(mutex_);
  --starting_;
  // Wake-ups this worker owes others, sent once it releases the lock: a
  // worker woken under the lock would only block on it again.
  size_t owed = 0;
  auto pay = [this, &owed] {
    for (; owed > 0; --owed) ready_cv_.NotifyOne();
  };
  for (;;) {
    if (ready_.empty()) {
      pay();
      if (stop_) return;  // shutdown only once every queue is dry
      ++idle_;
      ready_cv_.Wait(mutex_);
      --idle_;
      if (notified_ > 0) --notified_;
      continue;
    }
    Ready entry = std::move(ready_.front());
    ready_.pop_front();
    if (entry.strand == nullptr) {
      // A yielding task keeps its worker — and its caches — until a ready
      // entry lacks a worker; then it queues behind the others.
      for (;;) {
        lock.Unlock();
        pay();
        const bool again = entry.task();
        // Captures are released outside the lock, like a strand task's.
        if (!again) entry.task = nullptr;
        lock.Lock();
        if (!again) break;
        if (ready_.size() > notified_ + starting_) {
          owed += Requeue(std::move(entry));
          break;
        }
      }
      continue;
    }
    Strand* strand = entry.strand;
    std::function<void()> task = std::move(strand->tasks_.front());
    strand->tasks_.pop_front();
    lock.Unlock();
    pay();
    task();
    // Destroy the task before the bookkeeping below, so its captured
    // buffer handles recycle outside the lock.
    task = nullptr;
    lock.Lock();
    if (strand->parked_ && strand->tasks_.size() < strand_capacity_) {
      Task resume = std::move(strand->parked_);
      strand->parked_ = nullptr;
      owed += Schedule({nullptr, std::move(resume)});
    }
    if (strand->tasks_.empty()) {
      strand->scheduled_ = false;
    } else {
      owed += Requeue({strand, nullptr});  // back of the queue: fairness
    }
  }
}

}  // namespace nebulameos::nebula
