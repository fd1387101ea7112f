#include "nebula/operators.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/strings.hpp"

namespace nebulameos::nebula {

TupleBufferPtr ExecutionContext::Allocate(const Schema& schema) {
  std::shared_ptr<BufferManager> pool;
  {
    MutexLock lock(mutex_);
    auto& slot = pools_[schema.ToString()];
    if (!slot) {
      slot = BufferManager::Create(schema, tuples_per_buffer_, pool_size_);
    }
    pool = slot;
  }
  return pool->AcquireOrOverflow();
}

uint64_t ExecutionContext::TotalBuffersAcquired() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& [key, pool] : pools_) total += pool->total_acquired();
  return total;
}

// --- Shared materialization ---------------------------------------------------

namespace {

// Shared interpreted-materialization loop of MapOperator::ProcessBatch and
// ProjectOperator::ProcessBatch: allocate one output buffer and write one
// record per selected row. `write` receives (input record, writer).
template <typename WriteFn>
Result<TupleBufferPtr> MaterializeRows(ExecutionContext* ctx,
                                       const Schema& out_schema,
                                       const exec::Batch& input,
                                       const WriteFn& write) {
  NM_ASSIGN_OR_RETURN(TupleBufferPtr out,
                      exec::AllocateOutputFor(input, out_schema, ctx));
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    RecordWriter w = out->Append();
    write(rec, &w);
  }
  return out;
}

}  // namespace

// --- Filter -------------------------------------------------------------------

Result<OperatorPtr> FilterOperator::Make(const Schema& input,
                                         ExprPtr predicate) {
  if (!predicate) return Status::InvalidArgument("filter without predicate");
  // Memoize repeated subtrees — e.g. `f(x) > lo && f(x) < hi` evaluates
  // f(x) once per record. Rebuilt nodes come out unbound; the Bind below
  // covers originals and rewrites alike.
  CsePlan cse = PlanCse({std::move(predicate)});
  predicate = std::move(cse.roots.front());
  NM_RETURN_NOT_OK(predicate->Bind(input));
  return OperatorPtr(
      new FilterOperator(input, std::move(predicate), std::move(cse.cache)));
}

Status FilterOperator::ProcessBatch(const exec::Batch& input,
                                    const EmitFn& emit) {
  CountIn(input);
  const size_t n = input.NumRows();
  if (n == 0) return Status::OK();
  scratch_sel_.clear();
  for (size_t i = 0; i < n; ++i) {
    const size_t row = input.RowAt(i);
    if (cse_cache_) cse_cache_->Invalidate();
    if (ValueAsBool(predicate_->Eval(input.data->At(row)))) {
      scratch_sel_.push_back(static_cast<uint32_t>(row));
    }
  }
  if (scratch_sel_.size() == n) {
    // Fully selective: the input batch passes through untouched.
    CountOut(input);
    emit(input);
    return Status::OK();
  }
  if (scratch_sel_.empty()) return Status::OK();
  const exec::Batch out = exec::TakePartialSelection(&scratch_sel_, input);
  CountOut(out);
  emit(out);
  return Status::OK();
}

// --- Map ----------------------------------------------------------------------

Result<MapLayout> PlanMapLayout(const Schema& input,
                                std::vector<MapSpec> specs) {
  if (specs.empty()) return Status::InvalidArgument("map without specs");
  // Bind expressions against the *input* schema.
  for (MapSpec& spec : specs) {
    if (!spec.expr) return Status::InvalidArgument("map spec without expr");
    NM_RETURN_NOT_OK(spec.expr->Bind(input));
  }
  // Output schema: input fields (possibly replaced), then new fields in
  // spec order.
  MapLayout layout;
  std::vector<Field> fields = input.fields();
  layout.copy_from.resize(fields.size());
  layout.expr_of.assign(fields.size(), -1);
  for (size_t i = 0; i < fields.size(); ++i) {
    layout.copy_from[i] = static_cast<int>(i);
  }
  for (size_t s = 0; s < specs.size(); ++s) {
    const MapSpec& spec = specs[s];
    bool replaced = false;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].name == spec.name) {
        fields[i].type = spec.expr->output_type();
        layout.copy_from[i] = -1;
        layout.expr_of[i] = static_cast<int>(s);
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      fields.push_back({spec.name, spec.expr->output_type()});
      layout.copy_from.push_back(-1);
      layout.expr_of.push_back(static_cast<int>(s));
    }
  }
  NM_ASSIGN_OR_RETURN(layout.output_schema, Schema::Make(std::move(fields)));
  for (MapSpec& spec : specs) layout.exprs.push_back(std::move(spec.expr));
  return layout;
}

Result<OperatorPtr> MapOperator::Make(const Schema& input,
                                      std::vector<MapSpec> specs) {
  auto op = std::unique_ptr<MapOperator>(new MapOperator());
  op->input_schema_ = input;
  // Memoize subtrees repeated within or *across* the computed fields
  // before the layout binds them (PlanMapLayout re-binds the rewritten
  // roots). The cache spans all specs: one record, one epoch.
  std::vector<ExprPtr> roots;
  roots.reserve(specs.size());
  for (MapSpec& spec : specs) roots.push_back(std::move(spec.expr));
  CsePlan cse = PlanCse(std::move(roots));
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].expr = std::move(cse.roots[i]);
  }
  op->cse_cache_ = std::move(cse.cache);
  NM_ASSIGN_OR_RETURN(op->layout_, PlanMapLayout(input, std::move(specs)));
  return OperatorPtr(std::move(op));
}

void MapOperator::WriteRecord(const RecordView& rec, RecordWriter* w) const {
  if (cse_cache_) cse_cache_->Invalidate();
  const Schema& out_schema = layout_.output_schema;
  for (size_t f = 0; f < out_schema.num_fields(); ++f) {
    if (layout_.copy_from[f] >= 0) {
      const size_t src = static_cast<size_t>(layout_.copy_from[f]);
      switch (out_schema.field(f).type) {
        case DataType::kBool:
          w->SetBool(f, rec.GetBool(src));
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          w->SetInt64(f, rec.GetInt64(src));
          break;
        case DataType::kDouble:
          w->SetDouble(f, rec.GetDouble(src));
          break;
        case DataType::kText16:
        case DataType::kText32:
          w->SetText(f, rec.GetText(src));
          break;
      }
      continue;
    }
    const Value v = layout_.exprs[layout_.expr_of[f]]->Eval(rec);
    switch (out_schema.field(f).type) {
      case DataType::kBool:
        w->SetBool(f, ValueAsBool(v));
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
        w->SetInt64(f, ValueAsInt64(v));
        break;
      case DataType::kDouble:
        w->SetDouble(f, ValueAsDouble(v));
        break;
      case DataType::kText16:
      case DataType::kText32:
        w->SetText(f, ValueToString(v));
        break;
    }
  }
}

Status MapOperator::ProcessBatch(const exec::Batch& input,
                                 const EmitFn& emit) {
  CountIn(input);
  if (input.NumRows() == 0) return Status::OK();
  // Interpreted map over the selection: computes only surviving rows, no
  // intermediate materialization of the input.
  NM_ASSIGN_OR_RETURN(
      TupleBufferPtr out,
      MaterializeRows(ctx_, layout_.output_schema, input,
                      [this](const RecordView& rec, RecordWriter* w) {
                        WriteRecord(rec, w);
                      }));
  EmitSealed(std::move(out), emit);
  return Status::OK();
}

// --- Project ------------------------------------------------------------------

Result<OperatorPtr> ProjectOperator::Make(const Schema& input,
                                          std::vector<std::string> names) {
  if (names.empty()) return Status::InvalidArgument("project without fields");
  auto op = std::unique_ptr<ProjectOperator>(new ProjectOperator());
  std::vector<Field> fields;
  for (const std::string& name : names) {
    NM_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(name));
    op->indices_.push_back(idx);
    fields.push_back(input.field(idx));
  }
  NM_ASSIGN_OR_RETURN(op->output_schema_, Schema::Make(std::move(fields)));
  return OperatorPtr(std::move(op));
}

void ProjectOperator::WriteRecord(const RecordView& rec,
                                  RecordWriter* w) const {
  for (size_t f = 0; f < indices_.size(); ++f) {
    const size_t src = indices_[f];
    switch (output_schema_.field(f).type) {
      case DataType::kBool:
        w->SetBool(f, rec.GetBool(src));
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
        w->SetInt64(f, rec.GetInt64(src));
        break;
      case DataType::kDouble:
        w->SetDouble(f, rec.GetDouble(src));
        break;
      case DataType::kText16:
      case DataType::kText32:
        w->SetText(f, rec.GetText(src));
        break;
    }
  }
}

Status ProjectOperator::ProcessBatch(const exec::Batch& input,
                                     const EmitFn& emit) {
  CountIn(input);
  if (input.NumRows() == 0) return Status::OK();
  NM_ASSIGN_OR_RETURN(
      TupleBufferPtr out,
      MaterializeRows(ctx_, output_schema_, input,
                      [this](const RecordView& rec, RecordWriter* w) {
                        WriteRecord(rec, w);
                      }));
  EmitSealed(std::move(out), emit);
  return Status::OK();
}

// --- Window rows --------------------------------------------------------------

Result<WindowFields> WindowFields::Make(
    const Schema& input, const std::string& key_field,
    const std::string& time_field,
    const std::vector<AggregateSpec>& aggregates,
    const std::vector<CustomAggregatorFactory>& customs) {
  WindowFields f;
  f.input = input;
  std::vector<Field> out;
  f.keyed = !key_field.empty();
  if (f.keyed) {
    NM_ASSIGN_OR_RETURN(f.key_index, input.IndexOf(key_field));
    f.key_type = input.field(f.key_index).type;
    out.push_back(input.field(f.key_index));
  }
  if (time_field.empty()) {
    return Status::InvalidArgument("window needs a time field");
  }
  NM_ASSIGN_OR_RETURN(f.time_index, input.IndexOf(time_field));
  out.push_back({"window_start", DataType::kTimestamp});
  out.push_back({"window_end", DataType::kTimestamp});
  for (const AggregateSpec& spec : aggregates) {
    // kCount without a field counts records; it reads the time field.
    size_t idx = f.time_index;
    if (spec.kind != AggKind::kCount || !spec.field.empty()) {
      NM_ASSIGN_OR_RETURN(idx, input.IndexOf(spec.field));
      if (!IsNumeric(input.field(idx).type) &&
          input.field(idx).type != DataType::kBool) {
        return Status::InvalidArgument("aggregate over non-numeric field: " +
                                       spec.field);
      }
    }
    f.agg_field_index.push_back(idx);
    f.agg_kinds.push_back(spec.kind);
    out.push_back({spec.output_name, spec.kind == AggKind::kCount
                                         ? DataType::kInt64
                                         : DataType::kDouble});
  }
  f.custom_first_field = out.size();
  for (const CustomAggregatorFactory& factory : customs) {
    auto agg = factory();
    NM_RETURN_NOT_OK(agg->Bind(input));
    for (const Field& field : agg->OutputFields()) out.push_back(field);
  }
  NM_ASSIGN_OR_RETURN(f.output, Schema::Make(std::move(out)));
  return f;
}

WindowFields::KeyValue WindowFields::KeyOf(const RecordView& rec) const {
  if (!keyed) return int64_t{0};
  if (key_type == DataType::kText16 || key_type == DataType::kText32) {
    return rec.GetText(key_index);
  }
  return rec.GetInt64(key_index);
}

WindowFields::Customs WindowFields::MakeCustoms(
    const std::vector<CustomAggregatorFactory>& factories) const {
  Customs customs;
  for (const CustomAggregatorFactory& factory : factories) {
    auto agg = factory();
    Status s = agg->Bind(input);
    assert(s.ok());  // validated in Make
    (void)s;
    customs.push_back(std::move(agg));
  }
  return customs;
}

void WindowFields::WriteRow(RecordWriter w, const KeyValue& key,
                            Timestamp start, Timestamp end,
                            const std::vector<AggState>& states,
                            Customs* customs) const {
  size_t f = 0;
  if (keyed) {
    if (std::holds_alternative<int64_t>(key)) {
      w.SetInt64(f, std::get<int64_t>(key));
    } else if (key_type == DataType::kText16 ||
               key_type == DataType::kText32) {
      w.SetText(f, std::get<std::string>(key));
    }
    ++f;
  }
  w.SetInt64(f++, start);
  w.SetInt64(f++, end);
  for (size_t a = 0; a < agg_kinds.size(); ++a) {
    const double v = states[a].Result(agg_kinds[a]);
    if (agg_kinds[a] == AggKind::kCount) {
      w.SetInt64(f++, static_cast<int64_t>(v));
    } else {
      w.SetDouble(f++, v);
    }
  }
  if (customs == nullptr) return;
  size_t custom_field = custom_first_field;
  for (auto& agg : *customs) {
    agg->WriteResult(&w, custom_field);
    custom_field += agg->OutputFields().size();
  }
}

// --- WindowAggOperator ------------------------------------------------------------

Result<OperatorPtr> WindowAggOperator::Make(const Schema& input,
                                            WindowAggOptions options) {
  if (std::holds_alternative<ThresholdWindowSpec>(options.window)) {
    return Status::InvalidArgument(
        "use ThresholdWindowOperator for threshold windows");
  }
  auto op = std::unique_ptr<WindowAggOperator>(new WindowAggOperator());
  NM_ASSIGN_OR_RETURN(op->assigner_, WindowAssigner::Make(options.window));
  op->slice_ = std::gcd(op->assigner_.size(), op->assigner_.slide());
  NM_ASSIGN_OR_RETURN(
      op->fields_,
      WindowFields::Make(input, options.key_field, options.time_field,
                         options.aggregates, options.custom_aggregators));
  op->scratch_merged_.resize(options.aggregates.size());
  op->options_ = std::move(options);
  return OperatorPtr(std::move(op));
}

void WindowAggOperator::FoldCustoms(const RecordView& rec, Timestamp t,
                                    const KeyValue& key) {
  assigner_.AssignWindows(t, &scratch_starts_);
  for (Timestamp start : scratch_starts_) {
    if (start + assigner_.size() <= fired_through_) continue;  // fired
    auto [it, inserted] = customs_.try_emplace({start, key});
    if (inserted) it->second = fields_.MakeCustoms(options_.custom_aggregators);
    for (auto& agg : it->second) agg->Add(rec, t);
  }
}

void WindowAggOperator::FireWindow(Timestamp start, RowEmitter* out) {
  const Timestamp end = start + assigner_.size();
  scratch_cursors_.clear();
  for (auto g = slices_.lower_bound(start);
       g != slices_.end() && g->first < end; ++g) {
    scratch_cursors_.push_back({g->second.cbegin(), g->second.cend()});
  }
  // Merge the slices' key-ordered groups: one row per key, in key order.
  while (true) {
    const KeyValue* key = nullptr;
    for (const SliceCursor& c : scratch_cursors_) {
      if (c.at != c.end && (key == nullptr || c.at->first < *key)) {
        key = &c.at->first;
      }
    }
    if (key == nullptr) return;
    std::fill(scratch_merged_.begin(), scratch_merged_.end(), AggState{});
    // Cursors are in slice start order, so ties resolve as in one fold.
    for (SliceCursor& c : scratch_cursors_) {
      if (c.at == c.end || c.at->first != *key) continue;
      for (size_t a = 0; a < scratch_merged_.size(); ++a) {
        scratch_merged_[a].Merge(c.at->second[a]);
      }
      ++c.at;  // the node stays alive, so *key stays valid
    }
    auto custom =
        customs_.empty() ? customs_.end() : customs_.find({start, *key});
    const bool has_custom = custom != customs_.end();
    fields_.WriteRow(out->Append(), *key, start, end, scratch_merged_,
                     has_custom ? &custom->second : nullptr);
    if (has_custom) customs_.erase(custom);
  }
}

Status WindowAggOperator::FireUpTo(Timestamp watermark, const EmitFn& emit) {
  if (watermark <= fired_through_) return Status::OK();
  const Duration size = assigner_.size();
  const Duration slide = assigner_.slide();
  // Windows ending at or before `done` have fired.
  Timestamp done = fired_through_;
  fired_through_ = watermark;
  RowEmitter out(this, emit);
  while (!slices_.empty()) {
    // The next due window is the earliest unfired one holding the earliest
    // live slice: no earlier unfired window holds any slice.
    Timestamp start = FloorTo(slices_.begin()->first - size, slide) + slide;
    if (start + size <= done) start = FloorTo(done - size, slide) + slide;
    if (start + size > watermark) break;
    FireWindow(start, &out);
    done = start + size;
    // Slices before the next window start lie in no unfired window.
    slices_.erase(slices_.begin(), slices_.lower_bound(start + slide));
  }
  out.Flush();
  return Status::OK();
}

Status WindowAggOperator::ProcessBatch(const exec::Batch& input,
                                       const EmitFn& emit) {
  CountIn(input);
  const Duration size = assigner_.size();
  const size_t num_aggs = fields_.agg_kinds.size();
  uint64_t shed = 0;
  auto group = slices_.end();
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    const Timestamp t = rec.GetInt64(fields_.time_index);
    max_event_time_ = std::max(max_event_time_, t);
    // Monotonicity guard: when even the latest window holding t has fired,
    // applying the record would re-emit a closed window. The latest window
    // ends after t, so only t < fired_through_ can be shed.
    if (t < fired_through_ &&
        FloorTo(t, assigner_.slide()) + size <= fired_through_) {
      ++shed;
      continue;
    }
    const Timestamp slice = FloorTo(t, slice_);
    if (group == slices_.end() || group->first != slice) {
      group = slices_.try_emplace(slice).first;
    }
    auto [it, inserted] = group->second.try_emplace(fields_.KeyOf(rec));
    std::vector<AggState>& states = it->second;
    if (inserted) states.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      states[a].Add(rec.GetNumeric(fields_.agg_field_index[a]), t);
    }
    if (!options_.custom_aggregators.empty()) FoldCustoms(rec, t, it->first);
  }
  if (shed > 0) CountShed(shed);
  // Watermark: the max event time seen, minus allowed lateness.
  if (max_event_time_ != std::numeric_limits<Timestamp>::min()) {
    return FireUpTo(max_event_time_ - options_.allowed_lateness, emit);
  }
  return Status::OK();
}

Status WindowAggOperator::Finish(const EmitFn& emit) {
  return FireUpTo(std::numeric_limits<Timestamp>::max(), emit);
}

// --- ThresholdWindowOperator --------------------------------------------------------

Result<OperatorPtr> ThresholdWindowOperator::Make(
    const Schema& input, ThresholdWindowOptions options) {
  if (!options.predicate) {
    return Status::InvalidArgument("threshold window needs a predicate");
  }
  NM_RETURN_NOT_OK(options.predicate->Bind(input));
  auto op =
      std::unique_ptr<ThresholdWindowOperator>(new ThresholdWindowOperator());
  NM_ASSIGN_OR_RETURN(
      op->fields_,
      WindowFields::Make(input, options.key_field, options.time_field,
                         options.aggregates, options.custom_aggregators));
  op->options_ = std::move(options);
  return OperatorPtr(std::move(op));
}

ThresholdWindowOperator::OpenWindow ThresholdWindowOperator::MakeWindow(
    Timestamp start) const {
  OpenWindow win;
  win.start = start;
  win.last = start;
  win.states.resize(options_.aggregates.size());
  win.customs = fields_.MakeCustoms(options_.custom_aggregators);
  return win;
}

Status ThresholdWindowOperator::ProcessBatch(const exec::Batch& input,
                                             const EmitFn& emit) {
  CountIn(input);
  RowEmitter out(this, emit);
  uint64_t shed = 0;
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    const Timestamp t = rec.GetInt64(fields_.time_index);
    KeyValue key = fields_.KeyOf(rec);
    const bool holds = ValueAsBool(options_.predicate->Eval(rec));
    auto it = open_.find(key);
    if (holds) {
      // Monotonicity guard: a satisfying record at or before the last
      // closed window of its key belongs to a window already emitted —
      // applying it would resurrect or skew that window, so shed it.
      auto closed = closed_through_.find(key);
      if (closed != closed_through_.end() && t <= closed->second) {
        ++shed;
        continue;
      }
      if (it == open_.end()) {
        it = open_.emplace(std::move(key), MakeWindow(t)).first;
      }
      OpenWindow& win = it->second;
      // Repair mild disorder inside the open window: extend both bounds.
      win.start = std::min(win.start, t);
      win.last = std::max(win.last, t);
      for (size_t a = 0; a < win.states.size(); ++a) {
        win.states[a].Add(rec.GetNumeric(fields_.agg_field_index[a]), t);
      }
      for (auto& agg : win.customs) agg->Add(rec, t);
    } else if (it != open_.end()) {
      OpenWindow& win = it->second;
      // Close the window; emit when long enough.
      if (win.last - win.start >= options_.min_duration) {
        fields_.WriteRow(out.Append(), it->first, win.start, win.last,
                         win.states, &win.customs);
      }
      auto [closed, inserted] =
          closed_through_.try_emplace(it->first, win.last);
      if (!inserted) closed->second = std::max(closed->second, win.last);
      open_.erase(it);
    }
  }
  if (shed > 0) CountShed(shed);
  out.Flush();
  return Status::OK();
}

Status ThresholdWindowOperator::Finish(const EmitFn& emit) {
  RowEmitter out(this, emit);
  for (auto& [key, win] : open_) {
    if (win.last - win.start < options_.min_duration) continue;
    fields_.WriteRow(out.Append(), key, win.start, win.last, win.states,
                     &win.customs);
  }
  open_.clear();
  out.Flush();
  return Status::OK();
}

// --- Network channel pair ---------------------------------------------------

namespace {

// Wire frame layout: [record_count u64][buffer_seq u64][watermark i64]
// [channel_seq u64] then `record_count * record_size` raw record bytes
// (see `kWireFrameHeaderBytes`). Records are fixed-size (text fields
// NUL-padded), so the payload of a full batch is one memcpy of the
// buffer's record region; a partial selection copies one record per row.
std::vector<uint8_t> SerializeFrame(const exec::Batch& batch,
                                    uint64_t channel_seq) {
  const TupleBuffer& buffer = *batch.data;
  const uint64_t count = batch.NumRows();
  const size_t record_size = buffer.schema().record_size();
  std::vector<uint8_t> frame(kWireFrameHeaderBytes + batch.SizeBytes());
  const uint64_t buffer_seq = buffer.sequence_number();
  const int64_t watermark = buffer.watermark();
  std::memcpy(frame.data(), &count, sizeof(count));
  std::memcpy(frame.data() + 8, &buffer_seq, sizeof(buffer_seq));
  std::memcpy(frame.data() + 16, &watermark, sizeof(watermark));
  std::memcpy(frame.data() + 24, &channel_seq, sizeof(channel_seq));
  uint8_t* payload = frame.data() + kWireFrameHeaderBytes;
  if (count == 0) return frame;
  if (batch.IsFull()) {
    std::memcpy(payload, buffer.At(0).data(), batch.SizeBytes());
    return frame;
  }
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(payload + i * record_size, buffer.At(batch.RowAt(i)).data(),
                record_size);
  }
  return frame;
}

}  // namespace

Result<OperatorPtr> NetworkChannelSink::Make(
    const Schema& input, std::shared_ptr<NetworkChannel> channel) {
  if (!channel) {
    return Status::InvalidArgument("network channel sink without channel");
  }
  return OperatorPtr(new NetworkChannelSink(input, std::move(channel)));
}

Status NetworkChannelSink::ProcessBatch(const exec::Batch& input,
                                        const EmitFn& emit) {
  CountIn(input);
  std::vector<uint8_t> frame = SerializeFrame(input, next_seq_);
  const uint64_t wire = frame.size();
  channel_->Send(next_seq_, std::move(frame), input.SizeBytes(),
                 input.NumRows());
  ++next_seq_;
  // Wire-byte accounting (CountOut would count the unserialized rows).
  stats_.AddOut(input.NumRows(), wire);
  // The emitted batch only drives the paired NetworkChannelSource, which
  // reads the serialized frame from the channel instead.
  emit(input);
  return Status::OK();
}

Status NetworkChannelSink::Finish(const EmitFn& /*emit*/) {
  // End of stream: nothing more will push frames past the injector's
  // reorder slot or age its delay queue, so release them now. The paired
  // source's Finish runs after this one (chain order) and drains them.
  channel_->FlushFaults();
  return Status::OK();
}

Result<OperatorPtr> NetworkChannelSource::Make(
    const Schema& schema, std::shared_ptr<NetworkChannel> channel) {
  if (!channel) {
    return Status::InvalidArgument("network channel source without channel");
  }
  return OperatorPtr(new NetworkChannelSource(schema, std::move(channel)));
}

Status NetworkChannelSource::StashFrame(std::vector<uint8_t> frame) {
  if (frame.size() < kWireFrameHeaderBytes) {
    return Status::Internal("network frame shorter than its header");
  }
  PendingFrame pending;
  uint64_t channel_seq = 0;
  std::memcpy(&pending.count, frame.data(), sizeof(pending.count));
  std::memcpy(&pending.buffer_seq, frame.data() + 8,
              sizeof(pending.buffer_seq));
  std::memcpy(&pending.watermark, frame.data() + 16,
              sizeof(pending.watermark));
  std::memcpy(&channel_seq, frame.data() + 24, sizeof(channel_seq));
  if (frame.size() !=
      kWireFrameHeaderBytes + pending.count * schema_.record_size()) {
    return Status::Internal(
        "network frame payload does not match its record count");
  }
  stats_.AddIn(pending.count, frame.size());
  // Duplicate suppression: already released, or already waiting.
  if (channel_seq < next_seq_ || pending_.count(channel_seq) > 0) {
    channel_->NoteDuplicateSuppressed();
    return Status::OK();
  }
  pending.frame = std::move(frame);
  pending_.emplace(channel_seq, std::move(pending));
  return Status::OK();
}

Status NetworkChannelSource::EmitFrame(const PendingFrame& pending,
                                       const EmitFn& emit) {
  const size_t record_size = schema_.record_size();
  const uint8_t* payload = pending.frame.data() + kWireFrameHeaderBytes;
  // Clamp the watermark monotonic per channel: reorder repair restores
  // frame order, but a retransmitted or delayed frame may still carry a
  // watermark older than one already emitted.
  const int64_t watermark = std::max(pending.watermark, last_watermark_);
  last_watermark_ = watermark;
  // Reconstruct buffers, splitting when a frame outsizes the pool shape.
  uint64_t emitted = 0;
  do {
    TupleBufferPtr out = ctx_->Allocate(schema_);
    out->set_sequence_number(pending.buffer_seq);
    out->set_watermark(watermark);
    const uint64_t chunk =
        std::min<uint64_t>(pending.count - emitted, out->capacity());
    out->AppendRecords(payload + emitted * record_size, chunk);
    emitted += chunk;
    EmitSealed(std::move(out), emit);
  } while (emitted < pending.count);
  return Status::OK();
}

Status NetworkChannelSource::ReleaseReady(const EmitFn& emit) {
  while (!pending_.empty() && pending_.begin()->first == next_seq_) {
    PendingFrame pending = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    NM_RETURN_NOT_OK(EmitFrame(pending, emit));
    channel_->Ack(next_seq_);
    ++next_seq_;
  }
  return Status::OK();
}

Status NetworkChannelSource::Drain(const EmitFn& emit, bool at_end) {
  for (;;) {
    std::vector<uint8_t> frame;
    while (channel_->Receive(&frame)) {
      NM_RETURN_NOT_OK(StashFrame(std::move(frame)));
    }
    NM_RETURN_NOT_OK(ReleaseReady(emit));
    // After releasing the in-sequence prefix, anything still pending sits
    // behind a gap at next_seq_. Once more frames wait behind it than the
    // fault profile can move a frame, the gap can only be a drop: repair
    // it now. At end-of-stream, also repair a tail that never arrived.
    const bool dropped =
        pending_.size() > channel_->fault_profile().ReorderHorizon();
    const bool tail_missing = at_end && next_seq_ < channel_->seq_end();
    if (!dropped && !tail_missing) return Status::OK();
    const RetryOptions& retry = channel_->retry_options();
    Status repair = channel_->RequestRetransmit(next_seq_);
    if (repair.ok()) continue;  // re-sent; the next Receive round has it
    // Unrecoverable gap: degrade by policy.
    if (retry.shed_policy == ShedPolicy::kBlock) {
      return Status(repair.code(), "network channel " +
                                       channel_->EndpointsString() +
                                       ": " + repair.message());
    }
    channel_->NoteFrameLost(1);
    ++next_seq_;  // skip the gap; frames behind it release next round
  }
}

Status NetworkChannelSource::ProcessBatch(const exec::Batch& /*input*/,
                                          const EmitFn& emit) {
  // The input is the scheduling hand-off only; data arrives via the
  // channel.
  return Drain(emit, /*at_end=*/false);
}

Status NetworkChannelSource::Finish(const EmitFn& emit) {
  // Frames flushed by upstream Finish calls (including the paired sink's
  // fault flush) land here; recover any missing tail before reporting
  // end-of-stream.
  return Drain(emit, /*at_end=*/true);
}

// --- Sinks -------------------------------------------------------------------

Status SinkOperator::ProcessBatch(const exec::Batch& input, const EmitFn&) {
  CountIn(input);
  return Consume(input);
}

std::vector<std::vector<Value>> CollectSink::Rows() const {
  MutexLock lock(mutex_);
  return rows_;
}

size_t CollectSink::RowCount() const {
  MutexLock lock(mutex_);
  return rows_.size();
}

Status CollectSink::Consume(const exec::Batch& batch) {
  MutexLock lock(mutex_);
  for (size_t i = 0; i < batch.NumRows(); ++i) {
    if (rows_.size() >= max_rows_) {
      return Status::ResourceExhausted("collect sink row cap reached");
    }
    const RecordView rec = batch.data->At(batch.RowAt(i));
    std::vector<Value> row;
    row.reserve(schema_.num_fields());
    for (size_t f = 0; f < schema_.num_fields(); ++f) {
      switch (schema_.field(f).type) {
        case DataType::kBool:
          row.emplace_back(rec.GetBool(f));
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          row.emplace_back(rec.GetInt64(f));
          break;
        case DataType::kDouble:
          row.emplace_back(rec.GetDouble(f));
          break;
        case DataType::kText16:
        case DataType::kText32:
          row.emplace_back(rec.GetText(f));
          break;
      }
    }
    rows_.push_back(std::move(row));
  }
  return Status::OK();
}

Status CountingSink::Consume(const exec::Batch& batch) {
  events_.fetch_add(batch.NumRows());
  bytes_.fetch_add(batch.SizeBytes());
  return Status::OK();
}

Result<std::shared_ptr<CsvSink>> CsvSink::Open(Schema schema,
                                               const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open csv sink file: " + path);
  }
  // Header line.
  std::string header;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) header += ',';
    header += schema.field(i).name;
  }
  header += '\n';
  std::fputs(header.c_str(), f);
  return std::shared_ptr<CsvSink>(new CsvSink(std::move(schema), f));
}

CsvSink::~CsvSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CsvSink::Consume(const exec::Batch& batch) {
  MutexLock lock(mutex_);
  std::string line;
  for (size_t i = 0; i < batch.NumRows(); ++i) {
    const RecordView rec = batch.data->At(batch.RowAt(i));
    line.clear();
    for (size_t f = 0; f < schema_.num_fields(); ++f) {
      if (f > 0) line += ',';
      switch (schema_.field(f).type) {
        case DataType::kBool:
          line += rec.GetBool(f) ? "true" : "false";
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          line += std::to_string(rec.GetInt64(f));
          break;
        case DataType::kDouble:
          line += FormatDouble(rec.GetDouble(f));
          break;
        case DataType::kText16:
        case DataType::kText32:
          line += rec.GetText(f);
          break;
      }
    }
    line += '\n';
    std::fputs(line.c_str(), file_);
  }
  return Status::OK();
}

}  // namespace nebulameos::nebula
