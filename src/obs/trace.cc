#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <limits>
#include <unordered_map>

#include "obs/log.h"
#include "obs/profiler.h"

namespace ppdp::obs {

namespace {

/// Global intern table: span name -> small id, plus the reverse array the
/// profiler symbolizes samples with offline. Both sides are leaked so a
/// late signal (or a reader during shutdown) can never see freed memory.
struct SpanNameTable {
  std::mutex mutex;
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<const std::string*> names;  ///< index id-1 -> leaked name

  static SpanNameTable& Global() {
    static SpanNameTable* table = new SpanNameTable();  // intentionally leaked
    return *table;
  }
};

/// One phase's running totals; an empty row merges as a no-op.
struct PhaseRow {
  uint64_t count = 0;
  double total_us = 0.0, min_us = std::numeric_limits<double>::infinity(), max_us = 0.0;
  double cpu_us = 0.0;
  uint64_t alloc_bytes = 0;

  void Merge(const PhaseRow& other) {  // a close, or another thread's row
    count += other.count;
    total_us += other.total_us;
    min_us = std::min(min_us, other.min_us);
    max_us = std::max(max_us, other.max_us);
    cpu_us += other.cpu_us;
    alloc_bytes += other.alloc_bytes;
  }
};

/// One thread's span state: a fixed-depth stack of interned span ids,
/// pushed and popped by its owner, read by the owner's SIGPROF handler and
/// by ActiveSpanStacks() on other threads; and the phase rows its closes
/// fold into, which outlive the thread and pass to the slot's next owner.
constexpr uint32_t kMaxSignalSpanDepth = 64;
struct SpanStackSlot {
  std::atomic<uint32_t> depth{0};
  std::atomic<uint32_t> ids[kMaxSignalSpanDepth] = {};
  uint32_t thread = 0;  ///< owner's ordinal (TraceEvent::thread); set under the slots mutex
  bool live = false;    ///< guarded by the slots mutex
  std::mutex rows_mutex;       ///< the owner's at each close; others' to read or clear
  std::vector<PhaseRow> rows;  ///< indexed by span id
};

/// Every slot ever handed out: leaked, so readers never touch a dead
/// thread's TLS, and reused, so their number stays bounded by the peak
/// count of live threads that opened a span.
struct SpanStackSlots {
  std::mutex mutex;
  std::vector<SpanStackSlot*> slots;
  uint32_t next_thread = 0;  ///< thread ordinals, handed out at a thread's first span

  static SpanStackSlots& Global() {
    static SpanStackSlots* registry = new SpanStackSlots();  // intentionally leaked
    return *registry;
  }
};

/// The calling thread's slot (null until its first span). A plain pointer,
/// trivially destructible, so a late signal can read it at any time.
thread_local SpanStackSlot* t_span_slot = nullptr;

/// Gives the calling thread's slot back at thread exit.
struct SpanSlotLease {
  SpanStackSlot* slot = nullptr;
  ~SpanSlotLease() {
    if (slot == nullptr) return;
    std::lock_guard<std::mutex> lock(SpanStackSlots::Global().mutex);
    t_span_slot = nullptr;
    slot->depth.store(0, std::memory_order_relaxed);
    slot->live = false;
  }
};
thread_local SpanSlotLease t_span_slot_lease;

SpanStackSlot& ThisThreadSlot() {
  if (t_span_slot != nullptr) return *t_span_slot;
  SpanStackSlots& registry = SpanStackSlots::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto free_slot = std::find_if(registry.slots.begin(), registry.slots.end(),
                                [](const SpanStackSlot* slot) { return !slot->live; });
  SpanStackSlot* slot = free_slot != registry.slots.end()
                            ? *free_slot
                            : registry.slots.emplace_back(new SpanStackSlot());  // leaked
  slot->thread = registry.next_thread++;
  slot->live = true;
  t_span_slot_lease.slot = slot;
  t_span_slot = slot;
  return *slot;
}

/// Publishes `id` as the calling thread's innermost span, for the
/// profiler's signal handler and /statusz: the id is stored before the
/// depth that makes it visible.
void PushSpanId(uint32_t id) {
  SpanStackSlot& slot = ThisThreadSlot();
  uint32_t depth = slot.depth.load(std::memory_order_relaxed);
  if (depth < kMaxSignalSpanDepth) slot.ids[depth].store(id, std::memory_order_relaxed);
  slot.depth.store(depth + 1, std::memory_order_release);
}

/// Pops the calling thread's innermost span id; returns its slot.
SpanStackSlot& PopSpanId() {
  SpanStackSlot& slot = ThisThreadSlot();
  uint32_t depth = slot.depth.load(std::memory_order_relaxed);
  if (depth > 0) slot.depth.store(depth - 1, std::memory_order_release);
  return slot;
}

/// Calls `fn` on every slot's phase rows (live and exited threads'), each
/// under its slot's lock.
template <typename Fn>
void ForEachSlotRows(Fn fn) {
  SpanStackSlots& registry = SpanStackSlots::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);  // then a slot's rows lock
  for (SpanStackSlot* slot : registry.slots) {
    std::lock_guard<std::mutex> rows_lock(slot->rows_mutex);
    fn(slot->rows);
  }
}

}  // namespace

SpanSite::SpanSite(std::string_view span_name) {
  SpanNameTable& table = SpanNameTable::Global();
  std::lock_guard<std::mutex> lock(table.mutex);
  auto [it, added] = table.ids.try_emplace(std::string(span_name), 0);
  if (added) {
    table.names.push_back(new std::string(span_name));  // intentionally leaked
    it->second = static_cast<uint32_t>(table.names.size());
  }
  id = it->second;
  name = table.names[id - 1];
}

const std::string& SpanNameForId(uint32_t id) {
  static const std::string* kNone = new std::string("(none)");
  SpanNameTable& table = SpanNameTable::Global();
  std::lock_guard<std::mutex> lock(table.mutex);
  if (id == 0 || id > table.names.size()) return *kNone;
  return *table.names[id - 1];
}

uint32_t CurrentThreadSpanId() {
  const SpanStackSlot* slot = t_span_slot;
  if (slot == nullptr) return 0;
  const uint32_t depth = std::min(slot->depth.load(std::memory_order_acquire), kMaxSignalSpanDepth);
  return depth == 0 ? 0 : slot->ids[depth - 1].load(std::memory_order_relaxed);
}

void TouchSpanTls() { (void)CurrentThreadSpanId(); }  // reads t_span_slot, so its TLS exists

std::vector<ActiveSpanStack> ActiveSpanStacks() {
  std::vector<ActiveSpanStack> stacks;
  SpanStackSlots& registry = SpanStackSlots::Global();
  // Lock order: slots, then names or a slot's rows. Interning a site takes
  // the name lock and a thread's first span the slot lock, never both.
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const SpanStackSlot* slot : registry.slots) {
    // A returned slot has depth 0, so only live threads get past this.
    uint32_t depth = std::min(slot->depth.load(std::memory_order_acquire), kMaxSignalSpanDepth);
    if (depth == 0) continue;
    ActiveSpanStack& stack = stacks.emplace_back(ActiveSpanStack{slot->thread, {}});
    for (uint32_t i = 0; i < depth; ++i) {
      stack.spans.push_back(SpanNameForId(slot->ids[i].load(std::memory_order_relaxed)));
    }
  }
  std::sort(stacks.begin(), stacks.end(),
            [](const ActiveSpanStack& a, const ActiveSpanStack& b) { return a.thread < b.thread; });
  return stacks;
}

double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0.0;
#endif
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // intentionally leaked
  return *recorder;
}

void TraceRecorder::SetRetainEvents(bool retain) {
  retain_events_.store(retain, std::memory_order_relaxed);
}

void TraceRecorder::Record(const TraceEvent& event) {
  SpanStackSlot& slot = ThisThreadSlot();
  {
    std::lock_guard<std::mutex> lock(slot.rows_mutex);
    if (event.span >= slot.rows.size()) slot.rows.resize(event.span + 1);
    slot.rows[event.span].Merge({1, event.duration_us, event.duration_us, event.duration_us,
                                 event.cpu_us, event.alloc_bytes});
  }
  if (!retain_events_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

size_t TraceRecorder::num_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void TraceRecorder::Clear() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    dropped_ = 0;
  }
  ForEachSlotRows([](std::vector<PhaseRow>& rows) { rows.clear(); });
}

std::vector<TraceRecorder::PhaseStats> TraceRecorder::PhaseStatsSorted() const {
  std::vector<PhaseRow> phases;  // indexed by span id
  ForEachSlotRows([&](const std::vector<PhaseRow>& rows) {
    if (rows.size() > phases.size()) phases.resize(rows.size());
    for (size_t id = 0; id < rows.size(); ++id) phases[id].Merge(rows[id]);
  });
  std::vector<PhaseStats> stats;
  for (uint32_t id = 0; id < phases.size(); ++id) {
    const PhaseRow& row = phases[id];
    if (row.count == 0) continue;
    stats.push_back(PhaseStats{SpanNameForId(id), row.count, row.total_us / 1e3,
                               row.total_us / static_cast<double>(row.count) / 1e3,
                               row.min_us / 1e3, row.max_us / 1e3, row.cpu_us / 1e3,
                               row.alloc_bytes});
  }
  std::sort(stats.begin(), stats.end(), [](const PhaseStats& a, const PhaseStats& b) {
    return a.wall_ms_total != b.wall_ms_total ? a.wall_ms_total > b.wall_ms_total
                                              : a.name < b.name;
  });
  return stats;
}

TraceSpan::TraceSpan(const SpanSite& site) : site_(site) {
  PushSpanId(site_.id);
  start_us_ = MonotonicSeconds() * 1e6;
  start_cpu_us_ = ThreadCpuSeconds() * 1e6;
  start_alloc_bytes_ = ThreadAllocBytes();
}

double TraceSpan::ElapsedSeconds() const { return MonotonicSeconds() - start_us_ / 1e6; }

double TraceSpan::Stop() {
  if (!open_) return 0.0;
  open_ = false;
  const SpanStackSlot& slot = PopSpanId();
  TraceEvent event;
  event.span = site_.id;
  event.thread = slot.thread;
  event.start_us = start_us_;
  event.duration_us = MonotonicSeconds() * 1e6 - start_us_;
  event.cpu_us = ThreadCpuSeconds() * 1e6 - start_cpu_us_;
  event.alloc_bytes = ThreadAllocBytes() - start_alloc_bytes_;
  TraceRecorder::Global().Record(event);
  return event.duration_us;
}

SpanIdScope::SpanIdScope(uint32_t id) : pushed_(id != 0) {
  if (pushed_) PushSpanId(id);
}

SpanIdScope::~SpanIdScope() {
  if (pushed_) PopSpanId();
}

}  // namespace ppdp::obs
