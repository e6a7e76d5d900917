#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <unordered_map>

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#include "obs/log.h"
#include "obs/report.h"
#include "obs/trace.h"

// glibc spells the SIGEV_THREAD_ID target field differently across
// versions; the kernel ABI field is stable.
#if defined(SIGEV_THREAD_ID) && !defined(sigev_notify_thread_id)
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace ppdp::obs {

namespace {

/// Per-thread allocation tally, bumped by the replacement operator new
/// below. Plain thread-local PODs: local-exec TLS, zero-initialized in the
/// TLS image, safe to touch at any point of process life (including static
/// init and signal handlers, though the handler never does).
thread_local uint64_t t_alloc_bytes = 0;
thread_local uint64_t t_alloc_calls = 0;

/// One raw stack sample. Fixed-size and trivially copyable so the signal
/// handler writes it with plain stores.
struct Sample {
  uint32_t span_id = 0;
  uint32_t num_frames = 0;
  void* frames[Profiler::kMaxFrames];  ///< leaf first
};

/// Per-thread capture state. Slots are allocated once, leaked, and reused
/// across thread lifetimes, so a late signal can never touch freed memory.
struct ThreadSlot {
  pid_t tid = 0;
  /// This thread's own CPU clock (pthread_getcpuclockid). timer_create's
  /// CLOCK_THREAD_CPUTIME_ID names the *calling* thread's clock, so arming
  /// from another thread (Profiler::Start, /profilez) must use this instead.
  clockid_t cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
  std::atomic<bool> active{false};
  bool armed = false;  ///< guarded by Registry::mutex
  timer_t timer{};
  std::atomic<Sample*> buffer{nullptr};
  std::atomic<uint64_t> head{0};     ///< samples written this capture
  std::atomic<uint64_t> dropped{0};  ///< samples lost to a full buffer
};

/// Read by the signal handler; constant-initialized (no static-init guard).
std::atomic<bool> g_running{false};

/// The handler locates its own thread's slot through this; touched at
/// registration so TLS is materialized before any signal can arrive.
thread_local ThreadSlot* t_slot = nullptr;

struct Registry {
  std::mutex mutex;
  std::vector<ThreadSlot*> slots;  ///< leaked
  bool handler_installed = false;
  int hz = 0;
  double start_seconds = 0.0;
  double stop_seconds = 0.0;

  static Registry& Global() {
    static Registry* registry = new Registry();  // intentionally leaked
    return *registry;
  }
};

/// Frame-pointer backtrace from the interrupted context. Everything here is
/// async-signal-safe: register reads plus bounds-checked loads from this
/// thread's own stack. Under ASan/TSan the walk is disabled (a stray frame
/// pointer could land in a poisoned redzone and abort the run); samples
/// then carry the leaf PC only, and span attribution is unaffected.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kWalkFramePointers = false;
#else
constexpr bool kWalkFramePointers = true;
#endif

size_t CaptureBacktrace(void* ucontext_raw, const ThreadSlot* slot, void** frames) {
  uintptr_t pc = 0;
  uintptr_t fp = 0;
  ucontext_t* uc = static_cast<ucontext_t*>(ucontext_raw);
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)uc;
#endif
  size_t n = 0;
  if (pc != 0) frames[n++] = reinterpret_cast<void*>(pc);
  if (!kWalkFramePointers) return n;
  // x86-64 and aarch64 share the frame-record layout the -fno-omit-frame-
  // pointer builds emit: [fp] = caller's fp, [fp + 8] = return address.
  while (n < Profiler::kMaxFrames) {
    if (fp < slot->stack_lo || fp + 2 * sizeof(uintptr_t) > slot->stack_hi ||
        (fp & (sizeof(uintptr_t) - 1)) != 0) {
      break;
    }
    uintptr_t next_fp = reinterpret_cast<uintptr_t*>(fp)[0];
    uintptr_t ret = reinterpret_cast<uintptr_t*>(fp)[1];
    if (ret < 0x1000) break;
    frames[n++] = reinterpret_cast<void*>(ret);
    if (next_fp <= fp) break;  // chains must grow toward the stack base
    fp = next_fp;
  }
  return n;
}

void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* ucontext_raw) {
  int saved_errno = errno;
  ThreadSlot* slot = t_slot;
  // Acquire pairs with the release stores in Profiler::Start and
  // RegisterCurrentThread, so the buffer's allocation happens-before the
  // handler's writes into it.
  if (slot != nullptr && g_running.load(std::memory_order_acquire)) {
    Sample* buffer = slot->buffer.load(std::memory_order_acquire);
    if (buffer != nullptr) {
      uint64_t head = slot->head.load(std::memory_order_relaxed);
      if (head >= Profiler::kMaxSamplesPerThread) {
        slot->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        Sample& sample = buffer[head];
        sample.span_id = CurrentThreadSpanId();
        sample.num_frames =
            static_cast<uint32_t>(CaptureBacktrace(ucontext_raw, slot, sample.frames));
        // Release: Collect() reads head with acquire and only touches
        // samples below it, so a concurrent snapshot sees complete records.
        slot->head.store(head + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

/// Creates and starts a timer on this slot's own CPU clock. Requires
/// Registry::mutex. Returns false (slot left unarmed) when the platform
/// refuses per-thread timers.
bool ArmSlot(ThreadSlot* slot, int hz) {
#if defined(SIGEV_THREAD_ID)
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = slot->tid;
  timer_t timer;
  if (timer_create(slot->cpu_clock, &sev, &timer) != 0) return false;
  long period_ns = 1000000000L / hz;
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) {
    timer_delete(timer);
    return false;
  }
  slot->timer = timer;
  slot->armed = true;
  return true;
#else
  (void)slot;
  (void)hz;
  return false;
#endif
}

/// Requires Registry::mutex.
void DisarmSlot(ThreadSlot* slot) {
  if (!slot->armed) return;
  timer_delete(slot->timer);
  slot->armed = false;
}

/// Registers the calling thread (idempotent). Returns false when the thread
/// already held a registration (so scopes can nest without stealing it).
bool RegisterCurrentThread() {
  if (t_slot != nullptr && t_slot->active.load(std::memory_order_relaxed)) return false;
  TouchSpanTls();  // the handler reads span TLS; materialize it signal-free
  pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  clockid_t cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  if (pthread_getcpuclockid(pthread_self(), &cpu_clock) != 0) {
    cpu_clock = CLOCK_THREAD_CPUTIME_ID;  // arming will still work from self
  }
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      stack_lo = reinterpret_cast<uintptr_t>(addr);
      stack_hi = stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }

  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  ThreadSlot* slot = nullptr;
  for (ThreadSlot* candidate : registry.slots) {
    if (!candidate->active.load(std::memory_order_relaxed) && !candidate->armed) {
      slot = candidate;  // reuse a dead thread's slot (and its buffer)
      break;
    }
  }
  if (slot == nullptr) {
    slot = new ThreadSlot();  // intentionally leaked
    registry.slots.push_back(slot);
  }
  slot->tid = tid;
  slot->cpu_clock = cpu_clock;
  slot->stack_lo = stack_lo;
  slot->stack_hi = stack_hi;
  slot->head.store(0, std::memory_order_relaxed);
  slot->dropped.store(0, std::memory_order_relaxed);
  slot->active.store(true, std::memory_order_relaxed);
  t_slot = slot;
  if (g_running.load(std::memory_order_relaxed)) {
    // A capture is live: this thread joins it immediately.
    if (slot->buffer.load(std::memory_order_relaxed) == nullptr) {
      slot->buffer.store(new Sample[Profiler::kMaxSamplesPerThread],
                         std::memory_order_release);
    }
    ArmSlot(slot, registry.hz);
  }
  return true;
}

void UnregisterCurrentThread() {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (t_slot == nullptr) return;
  DisarmSlot(t_slot);
  t_slot->active.store(false, std::memory_order_relaxed);
  t_slot = nullptr;
}

/// Offline symbolization: dladdr against the (ENABLE_EXPORTS) dynamic
/// symbol table, demangled. Frames that resolve nowhere fold into
/// "[unknown]" so stacks stay stable across runs of the same build.
std::string SymbolizePc(void* pc) {
  Dl_info info;
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    // ';' is the folded-stack separator; C++20 NTTPs can smuggle one in.
    std::replace(name.begin(), name.end(), ';', ':');
    return name;
  }
  return "[unknown]";
}

std::vector<CpuProfile::FrameCount> TopN(const std::map<std::string, uint64_t>& counts,
                                         size_t n) {
  std::vector<CpuProfile::FrameCount> frames;
  frames.reserve(counts.size());
  for (const auto& [frame, samples] : counts) frames.push_back({frame, samples});
  std::sort(frames.begin(), frames.end(),
            [](const CpuProfile::FrameCount& a, const CpuProfile::FrameCount& b) {
              return a.samples != b.samples ? a.samples > b.samples : a.frame < b.frame;
            });
  if (frames.size() > n) frames.resize(n);
  return frames;
}

JsonValue FramesToJson(const std::vector<CpuProfile::FrameCount>& frames) {
  JsonValue array = JsonValue::Array();
  for (const CpuProfile::FrameCount& f : frames) {
    JsonValue row = JsonValue::Object();
    row.Set("frame", JsonValue::String(f.frame));
    row.Set("samples", JsonValue::Number(static_cast<double>(f.samples)));
    array.Append(std::move(row));
  }
  return array;
}

std::vector<CpuProfile::FrameCount> FramesFromJson(const JsonValue* array) {
  std::vector<CpuProfile::FrameCount> frames;
  if (array == nullptr || !array->is_array()) return frames;
  for (size_t i = 0; i < array->size(); ++i) {
    const JsonValue& row = array->at(i);
    if (!row.is_object()) continue;
    frames.push_back({row.GetStringOr("frame", ""),
                      static_cast<uint64_t>(row.GetNumberOr("samples", 0))});
  }
  return frames;
}

}  // namespace

uint64_t ThreadAllocBytes() { return t_alloc_bytes; }
uint64_t ThreadAllocCalls() { return t_alloc_calls; }

ProcessMemory ReadProcessMemory() {
  ProcessMemory memory;
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return memory;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      memory.rss_bytes = static_cast<uint64_t>(kb) * 1024;
    } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      memory.peak_rss_bytes = static_cast<uint64_t>(kb) * 1024;
    }
  }
  std::fclose(file);
  return memory;
}

uint64_t CurrentRssBytesCached(double now) {
  static std::atomic<double> last_read_seconds{-1.0};
  static std::atomic<uint64_t> last_rss{0};
  double last = last_read_seconds.load(std::memory_order_acquire);
  if (last >= 0.0 && now - last < 0.01) {
    return last_rss.load(std::memory_order_relaxed);
  }
  uint64_t rss = ReadProcessMemory().rss_bytes;
  last_rss.store(rss, std::memory_order_relaxed);
  last_read_seconds.store(now, std::memory_order_release);
  return rss;
}

ProcessCpu ReadProcessCpu() {
  ProcessCpu cpu;
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    cpu.user_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                       static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
    cpu.system_seconds = static_cast<double>(usage.ru_stime.tv_sec) +
                         static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  }
  return cpu;
}

ProfiledThreadScope::ProfiledThreadScope() : owned_(RegisterCurrentThread()) {}

ProfiledThreadScope::~ProfiledThreadScope() {
  if (owned_) UnregisterCurrentThread();
}

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();  // intentionally leaked
  return *profiler;
}

Status Profiler::Start(const Options& options) {
  if (options.hz < 1 || options.hz > 10000) {
    return Status::InvalidArgument("profiler hz must be in [1, 10000]");
  }
  RegisterCurrentThread();  // the starting thread is always profiled
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (g_running.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (!registry.handler_installed) {
    struct sigaction action{};
    action.sa_sigaction = SigprofHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (::sigaction(SIGPROF, &action, nullptr) != 0) {
      return Status::Unavailable(std::string("sigaction(SIGPROF): ") + std::strerror(errno));
    }
    registry.handler_installed = true;
  }
  registry.hz = options.hz;
  registry.start_seconds = MonotonicSeconds();
  registry.stop_seconds = 0.0;
  for (ThreadSlot* slot : registry.slots) {
    if (!slot->active.load(std::memory_order_relaxed)) continue;
    if (slot->buffer.load(std::memory_order_relaxed) == nullptr) {
      slot->buffer.store(new Sample[kMaxSamplesPerThread], std::memory_order_release);
    }
    slot->head.store(0, std::memory_order_relaxed);
    slot->dropped.store(0, std::memory_order_relaxed);
  }
  g_running.store(true, std::memory_order_release);
  int armed = 0;
  for (ThreadSlot* slot : registry.slots) {
    if (slot->active.load(std::memory_order_relaxed) && ArmSlot(slot, registry.hz)) ++armed;
  }
  if (armed == 0) {
    g_running.store(false, std::memory_order_release);
    return Status::Unavailable("no thread could arm a per-thread CPU-time timer");
  }
  PPDP_LOG(INFO) << "profiler started" << Field("hz", registry.hz)
                 << Field("threads", armed);
  return Status::Ok();
}

void Profiler::Stop() {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (!g_running.exchange(false, std::memory_order_acq_rel)) return;
  for (ThreadSlot* slot : registry.slots) DisarmSlot(slot);
  registry.stop_seconds = MonotonicSeconds();
}

bool Profiler::running() const { return g_running.load(std::memory_order_acquire); }

int Profiler::hz() const {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.hz;
}

uint64_t Profiler::samples_recorded() const {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  uint64_t total = 0;
  for (const ThreadSlot* slot : registry.slots) {
    total += slot->head.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t Profiler::samples_dropped() const {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  uint64_t total = 0;
  for (const ThreadSlot* slot : registry.slots) {
    total += slot->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

size_t Profiler::threads_registered() const {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  size_t active = 0;
  for (const ThreadSlot* slot : registry.slots) {
    if (slot->active.load(std::memory_order_relaxed)) ++active;
  }
  return active;
}

void Profiler::ClearSamples() {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (g_running.load(std::memory_order_relaxed)) return;  // a live capture owns the buffers
  for (ThreadSlot* slot : registry.slots) {
    slot->head.store(0, std::memory_order_relaxed);
    slot->dropped.store(0, std::memory_order_relaxed);
  }
}

CpuProfile Profiler::Collect(const std::string& name) const {
  Registry& registry = Registry::Global();
  CpuProfile profile;
  profile.name = name;

  // Snapshot every thread's published samples. The acquire on head pairs
  // with the handler's release, so records below head are complete even
  // while the capture is still running.
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    profile.hz = registry.hz;
    double end = g_running.load(std::memory_order_relaxed) ? MonotonicSeconds()
                                                           : registry.stop_seconds;
    if (registry.start_seconds > 0.0 && end > registry.start_seconds) {
      profile.duration_seconds = end - registry.start_seconds;
    }
    for (const ThreadSlot* slot : registry.slots) {
      const Sample* buffer = slot->buffer.load(std::memory_order_acquire);
      uint64_t head = slot->head.load(std::memory_order_acquire);
      profile.dropped += slot->dropped.load(std::memory_order_relaxed);
      if (buffer == nullptr || head == 0) continue;
      ++profile.threads_profiled;
      samples.insert(samples.end(), buffer, buffer + head);
    }
  }
  profile.samples = samples.size();
  RunReport::BuildInfo build = CurrentBuildInfo();
  profile.compiler = build.compiler;
  profile.build_type = build.build_type;

  // Symbolize each distinct PC once.
  std::unordered_map<void*, std::string> symbols;
  auto symbol_of = [&symbols](void* pc, bool leaf) -> const std::string& {
    // Return addresses point just past the call; step back one byte so the
    // call site's own symbol wins. The leaf PC is the interrupted
    // instruction itself and stays as-is.
    void* key = leaf ? pc
                     : reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(pc) - 1);
    auto it = symbols.find(key);
    if (it == symbols.end()) it = symbols.emplace(key, SymbolizePc(key)).first;
    return it->second;
  };

  struct PhaseAgg {
    uint64_t samples = 0;
    std::map<std::string, uint64_t> self;
    std::map<std::string, uint64_t> total;
  };
  std::map<std::string, PhaseAgg> phases;
  std::map<std::string, uint64_t> stacks;
  std::vector<std::string> frame_names;
  for (const Sample& sample : samples) {
    const std::string& phase_name = SpanNameForId(sample.span_id);
    PhaseAgg& agg = phases[phase_name];
    ++agg.samples;

    frame_names.clear();
    for (uint32_t i = 0; i < sample.num_frames && i < kMaxFrames; ++i) {
      frame_names.push_back(symbol_of(sample.frames[i], /*leaf=*/i == 0));
    }
    agg.self[frame_names.empty() ? "[unknown]" : frame_names.front()]++;
    std::map<std::string, bool> seen;  // recursion counts once per sample
    for (const std::string& frame : frame_names) {
      if (!seen.emplace(frame, true).second) continue;
      agg.total[frame]++;
    }

    std::string folded = phase_name;
    for (size_t i = frame_names.size(); i > 0; --i) {  // root first
      folded += ';';
      folded += frame_names[i - 1];
    }
    stacks[folded]++;
  }

  // Merge per-phase memory numbers recorded by the TraceRecorder under the
  // same phase names.
  std::map<std::string, TraceRecorder::PhaseStats> trace_phases;
  for (TraceRecorder::PhaseStats& stats : TraceRecorder::Global().PhaseStatsSorted()) {
    trace_phases[stats.name] = std::move(stats);
  }
  for (const auto& [phase_name, agg] : phases) {
    CpuProfile::Phase phase;
    phase.name = phase_name;
    phase.samples = agg.samples;
    phase.cpu_seconds = profile.hz > 0 ? static_cast<double>(agg.samples) / profile.hz : 0.0;
    auto it = trace_phases.find(phase_name);
    if (it != trace_phases.end()) {
      phase.alloc_bytes = it->second.alloc_bytes_total;
      phase.rss_peak_bytes = it->second.rss_peak_bytes;
    }
    phase.self_frames = TopN(agg.self, CpuProfile::kTopFrames);
    phase.total_frames = TopN(agg.total, CpuProfile::kTopFrames);
    profile.phases.push_back(std::move(phase));
  }
  std::sort(profile.phases.begin(), profile.phases.end(),
            [](const CpuProfile::Phase& a, const CpuProfile::Phase& b) {
              return a.samples != b.samples ? a.samples > b.samples : a.name < b.name;
            });

  profile.stacks.reserve(stacks.size());
  for (const auto& [stack, count] : stacks) profile.stacks.push_back({stack, count});
  std::sort(profile.stacks.begin(), profile.stacks.end(),
            [](const CpuProfile::Stack& a, const CpuProfile::Stack& b) {
              return a.count != b.count ? a.count > b.count : a.stack < b.stack;
            });
  if (profile.stacks.size() > CpuProfile::kMaxStacks) {
    profile.stacks_truncated = profile.stacks.size() - CpuProfile::kMaxStacks;
    profile.stacks.resize(CpuProfile::kMaxStacks);
  }
  return profile;
}

/// ---- CpuProfile serialization ----

const char* CpuProfile::SchemaTag() { return "ppdp.profile.v1"; }

JsonValue CpuProfile::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String(SchemaTag()));
  doc.Set("schema_version", JsonValue::Number(kSchemaVersion));
  doc.Set("name", JsonValue::String(name));
  doc.Set("hz", JsonValue::Number(hz));
  doc.Set("duration_seconds", JsonValue::Number(duration_seconds));
  doc.Set("threads_profiled", JsonValue::Number(threads_profiled));
  doc.Set("samples", JsonValue::Number(static_cast<double>(samples)));
  doc.Set("dropped", JsonValue::Number(static_cast<double>(dropped)));

  JsonValue build = JsonValue::Object();
  build.Set("compiler", JsonValue::String(compiler));
  build.Set("build_type", JsonValue::String(build_type));
  doc.Set("build", std::move(build));

  JsonValue phase_array = JsonValue::Array();
  for (const Phase& phase : phases) {
    JsonValue row = JsonValue::Object();
    row.Set("name", JsonValue::String(phase.name));
    row.Set("samples", JsonValue::Number(static_cast<double>(phase.samples)));
    row.Set("cpu_seconds", JsonValue::Number(phase.cpu_seconds));
    row.Set("alloc_bytes", JsonValue::Number(static_cast<double>(phase.alloc_bytes)));
    row.Set("rss_peak_bytes", JsonValue::Number(static_cast<double>(phase.rss_peak_bytes)));
    row.Set("self_frames", FramesToJson(phase.self_frames));
    row.Set("total_frames", FramesToJson(phase.total_frames));
    phase_array.Append(std::move(row));
  }
  doc.Set("phases", std::move(phase_array));

  JsonValue stack_array = JsonValue::Array();
  for (const Stack& stack : stacks) {
    JsonValue row = JsonValue::Object();
    row.Set("stack", JsonValue::String(stack.stack));
    row.Set("count", JsonValue::Number(static_cast<double>(stack.count)));
    stack_array.Append(std::move(row));
  }
  doc.Set("stacks", std::move(stack_array));
  doc.Set("stacks_truncated", JsonValue::Number(static_cast<double>(stacks_truncated)));
  return doc;
}

Status CpuProfile::WriteJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot open " + path + " for writing");
  file << ToJson().Dump() << "\n";
  if (!file.good()) return Status::Internal("write to " + path + " failed");
  return Status::Ok();
}

Status CpuProfile::WriteFolded(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot open " + path + " for writing");
  for (const Stack& stack : stacks) {
    file << stack.stack << " " << stack.count << "\n";
  }
  if (!file.good()) return Status::Internal("write to " + path + " failed");
  return Status::Ok();
}

Result<CpuProfile> CpuProfile::FromJson(const JsonValue& doc) {
  PPDP_RETURN_IF_ERROR(CheckDocumentHeader(doc, SchemaTag(),
                                           {{"name", JsonValue::Kind::kString},
                                            {"hz", JsonValue::Kind::kNumber},
                                            {"duration_seconds", JsonValue::Kind::kNumber},
                                            {"threads_profiled", JsonValue::Kind::kNumber},
                                            {"samples", JsonValue::Kind::kNumber},
                                            {"dropped", JsonValue::Kind::kNumber},
                                            {"build", JsonValue::Kind::kObject},
                                            {"phases", JsonValue::Kind::kArray},
                                            {"stacks", JsonValue::Kind::kArray}}));
  CpuProfile profile;
  profile.name = doc.GetStringOr("name", "");
  profile.hz = static_cast<int>(doc.GetNumberOr("hz", 0));
  profile.duration_seconds = doc.GetNumberOr("duration_seconds", 0.0);
  profile.threads_profiled = static_cast<int>(doc.GetNumberOr("threads_profiled", 0));
  profile.samples = static_cast<uint64_t>(doc.GetNumberOr("samples", 0));
  profile.dropped = static_cast<uint64_t>(doc.GetNumberOr("dropped", 0));
  profile.stacks_truncated = static_cast<uint64_t>(doc.GetNumberOr("stacks_truncated", 0));
  profile.compiler = doc.Find("build")->GetStringOr("compiler", "");
  profile.build_type = doc.Find("build")->GetStringOr("build_type", "");
  const JsonValue& phase_array = *doc.Find("phases");
  for (size_t i = 0; i < phase_array.size(); ++i) {
    const JsonValue& row = phase_array.at(i);
    if (!row.is_object() || row.GetStringOr("name", "").empty() || !row.Has("samples") ||
        !row.Has("self_frames") || !row.Has("total_frames")) {
      return Status::InvalidArgument("phases[" + std::to_string(i) + "] malformed");
    }
    Phase phase;
    phase.name = row.GetStringOr("name", "");
    phase.samples = static_cast<uint64_t>(row.GetNumberOr("samples", 0));
    phase.cpu_seconds = row.GetNumberOr("cpu_seconds", 0.0);
    phase.alloc_bytes = static_cast<uint64_t>(row.GetNumberOr("alloc_bytes", 0));
    phase.rss_peak_bytes = static_cast<uint64_t>(row.GetNumberOr("rss_peak_bytes", 0));
    phase.self_frames = FramesFromJson(row.Find("self_frames"));
    phase.total_frames = FramesFromJson(row.Find("total_frames"));
    profile.phases.push_back(std::move(phase));
  }
  const JsonValue& stack_array = *doc.Find("stacks");
  for (size_t i = 0; i < stack_array.size(); ++i) {
    const JsonValue& row = stack_array.at(i);
    if (!row.is_object() || row.GetStringOr("stack", "").empty() || !row.Has("count")) {
      return Status::InvalidArgument("stacks[" + std::to_string(i) + "] malformed");
    }
    profile.stacks.push_back({row.GetStringOr("stack", ""),
                              static_cast<uint64_t>(row.GetNumberOr("count", 0))});
  }
  return profile;
}

Result<CpuProfile> CpuProfile::Load(const std::string& path) {
  Result<JsonValue> doc = JsonValue::Load(path);
  if (!doc.ok()) return doc.status();
  Result<CpuProfile> profile = FromJson(*doc);
  if (!profile.ok()) return profile.status().Annotate(path);
  return profile;
}

Table CpuProfile::PhaseTable() const {
  Table table({"phase", "samples", "cpu s", "alloc MB", "peak rss MB", "top self frame"});
  for (const Phase& phase : phases) {
    table.AddRow({phase.name, std::to_string(phase.samples),
                  Table::FormatDouble(phase.cpu_seconds, 2),
                  Table::FormatDouble(static_cast<double>(phase.alloc_bytes) / (1 << 20), 2),
                  Table::FormatDouble(static_cast<double>(phase.rss_peak_bytes) / (1 << 20), 1),
                  phase.self_frames.empty() ? "-" : phase.self_frames.front().frame});
  }
  return table;
}

Table CpuProfile::TopFramesTable(size_t n) const {
  struct Row {
    std::string frame;
    std::string phase;
    uint64_t samples;
  };
  std::vector<Row> rows;
  for (const Phase& phase : phases) {
    for (const FrameCount& frame : phase.self_frames) {
      rows.push_back({frame.frame, phase.name, frame.samples});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.samples != b.samples ? a.samples > b.samples : a.frame < b.frame;
  });
  if (rows.size() > n) rows.resize(n);
  Table table({"frame", "phase", "self samples", "share"});
  for (const Row& row : rows) {
    double share = samples > 0 ? static_cast<double>(row.samples) /
                                     static_cast<double>(samples)
                               : 0.0;
    table.AddRow({row.frame, row.phase, std::to_string(row.samples),
                  Table::FormatDouble(share * 100.0, 1) + "%"});
  }
  return table;
}

ProfileDiff DiffProfiles(const CpuProfile& baseline, const CpuProfile& current,
                         const ProfileDiffOptions& options) {
  auto shares = [](const CpuProfile& profile) {
    std::map<std::string, uint64_t> self;
    for (const CpuProfile::Phase& phase : profile.phases) {
      for (const CpuProfile::FrameCount& frame : phase.self_frames) {
        self[frame.frame] += frame.samples;
      }
    }
    std::map<std::string, double> out;
    for (const auto& [frame, samples] : self) {
      out[frame] = profile.samples > 0
                       ? static_cast<double>(samples) / static_cast<double>(profile.samples)
                       : 0.0;
    }
    return out;
  };
  std::map<std::string, double> base = shares(baseline);
  std::map<std::string, double> cur = shares(current);

  ProfileDiff diff;
  std::vector<std::pair<std::string, double>> base_sorted(base.begin(), base.end());
  std::sort(base_sorted.begin(), base_sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [frame, share] : base_sorted) {
    FrameDelta delta;
    delta.frame = frame;
    delta.baseline_share = share;
    auto it = cur.find(frame);
    if (it == cur.end()) {
      delta.only_in_baseline = true;
    } else {
      delta.current_share = it->second;
      delta.ratio = share > 0.0 ? delta.current_share / share : 0.0;
      delta.regressed =
          Regressed(share, delta.current_share, options.threshold, options.min_share);
    }
    diff.regressed = diff.regressed || delta.regressed;
    diff.frames.push_back(std::move(delta));
  }
  for (const auto& [frame, share] : cur) {
    if (base.count(frame) != 0) continue;
    FrameDelta delta;
    delta.frame = frame;
    delta.current_share = share;
    delta.only_in_current = true;
    diff.frames.push_back(std::move(delta));
  }
  return diff;
}

Table ProfileDiff::Summary() const {
  Table table({"frame", "baseline %", "current %", "ratio", "verdict"});
  for (const FrameDelta& delta : frames) {
    std::string verdict = delta.only_in_baseline ? "missing"
                          : delta.only_in_current ? "new"
                          : delta.regressed       ? "REGRESSED"
                                                  : "ok";
    table.AddRow({delta.frame,
                  delta.only_in_current ? "-"
                                        : Table::FormatDouble(delta.baseline_share * 100, 2),
                  delta.only_in_baseline ? "-"
                                         : Table::FormatDouble(delta.current_share * 100, 2),
                  delta.only_in_baseline || delta.only_in_current
                      ? "-"
                      : Table::FormatDouble(delta.ratio, 3),
                  verdict});
  }
  return table;
}

}  // namespace ppdp::obs

/// ---- Global allocation-function replacement (allocation observability) ----
///
/// Counting happens in the thread-local tallies above; the allocations
/// themselves go straight to malloc / posix_memalign / free, so sanitizer
/// interceptors keep working underneath. The definitions live in this TU —
/// which every binary links, because trace.cc calls ThreadAllocBytes — so
/// the whole process is counted consistently. The tallies are plain
/// local-exec TLS PODs, valid even for allocations during static init.

namespace {

inline void* PpdpCountedAlloc(std::size_t size) noexcept {
  ppdp::obs::t_alloc_bytes += size;
  ++ppdp::obs::t_alloc_calls;
  return std::malloc(size != 0 ? size : 1);
}

inline void* PpdpCountedAllocAligned(std::size_t size, std::size_t align) noexcept {
  ppdp::obs::t_alloc_bytes += size;
  ++ppdp::obs::t_alloc_calls;
  if (align < sizeof(void*)) align = sizeof(void*);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align, size != 0 ? size : 1) != 0) return nullptr;
  return ptr;
}

[[noreturn]] void ThrowBadAlloc() { throw std::bad_alloc(); }

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = PpdpCountedAlloc(size);
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = PpdpCountedAlloc(size);
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return PpdpCountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return PpdpCountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = PpdpCountedAllocAligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = PpdpCountedAllocAligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return PpdpCountedAllocAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return PpdpCountedAllocAligned(size, static_cast<std::size_t>(align));
}

// GCC pairs any `new` expression with `free` here and warns; the pairing is
// in fact correct because every replacement operator new above is malloc /
// posix_memalign backed (both are freed with free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
