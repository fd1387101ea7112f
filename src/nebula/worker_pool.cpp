#include "nebula/worker_pool.hpp"

namespace nebulameos::nebula {

WorkerPool::WorkerPool(size_t workers, size_t strand_capacity,
                       ShedPolicy shed_policy)
    : strand_capacity_(strand_capacity), shed_policy_(shed_policy) {
  if (workers == 0) workers = 1;
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  ready_cv_.NotifyAll();
  space_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

std::unique_ptr<WorkerPool::Strand> WorkerPool::MakeStrand() {
  return std::unique_ptr<Strand>(new Strand(this));
}

bool WorkerPool::Strand::Post(std::function<void()> task, bool sheddable) {
  return pool_->Post(this, std::move(task), sheddable);
}

bool WorkerPool::Post(Strand* strand, std::function<void()> task,
                      bool sheddable) {
  // Destroyed after the lock releases: shedding the oldest morsel drops
  // its captured buffer handles, whose recycling must not run under the
  // pool mutex.
  std::function<void()> shed;
  MutexLock lock(mutex_);
  // Only external threads honour the bound: a worker blocking on a full
  // strand could leave every worker blocked with no one left to drain.
  if (strand_capacity_ > 0 && !OnWorkerThread()) {
    if (shed_policy_ == ShedPolicy::kBlock || !sheddable) {
      while (strand->tasks_.size() >= strand_capacity_ && !stop_) {
        space_cv_.Wait(mutex_);
      }
    } else if (strand->tasks_.size() >= strand_capacity_ && !stop_) {
      // Degradation instead of backpressure: make room by policy.
      tasks_shed_.fetch_add(1, std::memory_order_relaxed);
      if (shed_policy_ == ShedPolicy::kDropLate) return false;
      shed = std::move(strand->tasks_.front());  // kDropOldest
      strand->tasks_.pop_front();
      if (--pending_ == 0) drained_cv_.NotifyAll();
    }
  }
  if (stop_) return false;
  strand->tasks_.push_back(std::move(task));
  ++pending_;
  if (!strand->scheduled_) {
    strand->scheduled_ = true;
    ready_.push_back(strand);
    ready_cv_.NotifyOne();
  }
  return shed == nullptr;
}

void WorkerPool::Drain() {
  MutexLock lock(mutex_);
  while (pending_ != 0) drained_cv_.Wait(mutex_);
}

bool WorkerPool::OnWorkerThread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread& t : threads_) {
    if (t.get_id() == self) return true;
  }
  return false;
}

void WorkerPool::WorkerMain() {
  MutexLock lock(mutex_);
  for (;;) {
    while (ready_.empty() && !stop_) ready_cv_.Wait(mutex_);
    if (ready_.empty()) {
      if (stop_) return;  // shutdown only once every queue is dry
      continue;
    }
    Strand* strand = ready_.front();
    ready_.pop_front();
    std::function<void()> task = std::move(strand->tasks_.front());
    strand->tasks_.pop_front();
    lock.Unlock();
    task();
    // Destroy the task before acknowledging completion, so Drain() implies
    // captured buffer handles have recycled into their pools.
    task = nullptr;
    lock.Lock();
    if (strand->tasks_.empty()) {
      strand->scheduled_ = false;
    } else {
      ready_.push_back(strand);  // requeue at the back: strand fairness
      ready_cv_.NotifyOne();
    }
    if (--pending_ == 0) drained_cv_.NotifyAll();
    if (strand_capacity_ > 0) space_cv_.NotifyAll();
  }
}

}  // namespace nebulameos::nebula
