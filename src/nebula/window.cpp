#include "nebula/window.hpp"

namespace nebulameos::nebula {

Result<WindowAssigner> WindowAssigner::Make(const WindowSpec& spec) {
  if (const auto* t = std::get_if<TumblingWindowSpec>(&spec)) {
    if (t->size <= 0) {
      return Status::InvalidArgument("tumbling window size must be > 0");
    }
    return WindowAssigner(t->size, t->size);
  }
  if (const auto* s = std::get_if<SlidingWindowSpec>(&spec)) {
    if (s->size <= 0 || s->slide <= 0) {
      return Status::InvalidArgument("sliding window size/slide must be > 0");
    }
    if (s->slide > s->size) {
      return Status::InvalidArgument("sliding window slide must be <= size");
    }
    return WindowAssigner(s->size, s->slide);
  }
  return Status::InvalidArgument(
      "threshold windows are handled by ThresholdWindowOperator");
}

void WindowAssigner::AssignWindows(Timestamp t,
                                   std::vector<Timestamp>* starts) const {
  starts->clear();
  // All windows [start, start + size) containing t, latest first.
  for (Timestamp s = FloorTo(t, slide_); s > t - size_; s -= slide_) {
    starts->push_back(s);
  }
}

void AggState::Add(double v, Timestamp t) {
  if (count_ == 0) {
    min_ = max_ = first_ = last_ = v;
    first_t_ = last_t_ = t;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    if (t < first_t_) {
      first_ = v;
      first_t_ = t;
    }
    if (t >= last_t_) {
      last_ = v;
      last_t_ = t;
    }
  }
  sum_ += v;
  ++count_;
}

void AggState::Merge(const AggState& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (other.first_t_ < first_t_) {
    first_ = other.first_;
    first_t_ = other.first_t_;
  }
  if (other.last_t_ >= last_t_) {
    last_ = other.last_;
    last_t_ = other.last_t_;
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

double AggState::Result(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return static_cast<double>(count_);
    case AggKind::kSum:
      return sum_;
    case AggKind::kAvg:
      return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    case AggKind::kMin:
      return min_;
    case AggKind::kMax:
      return max_;
    case AggKind::kFirst:
      return first_;
    case AggKind::kLast:
      return last_;
  }
  return 0.0;
}

}  // namespace nebulameos::nebula
