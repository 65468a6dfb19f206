// Deterministic discrete-event simulation (DES) engine.
//
// Simulated processes (MPI ranks, cache sync threads) are fibers scheduled
// cooperatively on the caller's thread: the engine always resumes the
// runnable process with the smallest (virtual time, sequence) key, so a
// run is a deterministic function of the inputs and seeds. All blocking
// primitives in sync.h / mailbox.h park the calling fiber through the same
// switch. Fibers make a context switch a userspace register swap instead of
// an OS thread handoff — the difference between simulating 512 ranks in
// seconds versus minutes.
//
// Hot-path layout (docs/performance.md has the inventory and numbers):
//   - ready queue: allocation-free binary min-heap (sim/ready_queue.h)
//     preserving the exact (time, seq) FIFO order of the original
//     std::map-based scheduler,
//   - processes: chunked arena with stable addresses, indexed O(1) by
//     ProcessId,
//   - fiber stacks: 512 KiB slots of anonymous mappings made in batches
//     (one per reserve_processes() call, so a World maps all its ranks at
//     once), each slot's lowest page a PROT_NONE guard that faults on
//     overflow, recycled across process lifetimes; a fiber keeps only the
//     pages it has touched resident,
//   - process bodies: SmallFn (sim/small_fn.h) with a 128-byte inline
//     buffer instead of std::function,
//   - context switch: a ~10-instruction userspace register swap on
//     x86-64 (no sigprocmask syscalls), with a ucontext fallback for
//     other architectures (E10_FAST_FIBERS below).
//
// Virtual time only moves forward through explicit costs: Engine::delay()
// (compute phases, modeled service times) and wake-up times passed to
// make_ready() (message arrival, I/O completion).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "sim/ready_queue.h"
#include "sim/small_fn.h"

// Fast userspace context switch: saves/restores only the sysv callee-saved
// registers plus the FP control words. Everything this build targets is
// x86-64 Linux; the ucontext fallback keeps other hosts working.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define E10_FAST_FIBERS 1
#else
#define E10_FAST_FIBERS 0
#include <ucontext.h>
#endif

namespace e10::sim {

class Engine;
class ConcurrencyObserver;  // concurrency.h
class CausalObserver;       // causal.h

using ProcessId = std::uint64_t;
inline constexpr ProcessId kNoProcess = ~ProcessId{0};

/// Thrown out of Engine::run() when every live process is blocked. The
/// message lists, per blocked process: its name, the primitive it blocks
/// on, its virtual clock, and (when a concurrency observer is attached)
/// the locks it holds and waits for.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown inside a simulated process when the engine tears it down
/// (destructor / error propagation). Process bodies must not swallow it.
class ProcessCancelled {};

/// Deterministic self-metrics: pure counts of scheduler activity, no wall
/// clock anywhere (the wall-clock lint rule bans it in src/). Two runs of
/// the same scenario produce identical numbers, which makes these counters
/// usable as CI regression gates and fuzz determinism oracles where
/// host-time measurements would flake.
struct EngineStats {
  /// Ready-queue pops dispatched by run() (excludes cancel_all teardown).
  std::uint64_t events = 0;
  /// Fiber resumes (run() dispatches + cancel_all unwinds).
  std::uint64_t switches = 0;
  /// Processes ever spawned.
  std::uint64_t spawned = 0;
  /// Peak ready-queue depth observed at insert.
  std::uint64_t max_ready_depth = 0;
  /// Spawns whose fiber stack came from the recycle pool (not a fresh
  /// allocation).
  std::uint64_t stack_reuses = 0;
};

/// Handle to a spawned process; join() blocks the calling process until the
/// target finishes and advances the caller's clock to the finish time.
class ProcessHandle {
 public:
  ProcessHandle() = default;

  ProcessId id() const { return id_; }
  bool valid() const { return engine_ != nullptr; }

  /// Callable only from inside another simulated process.
  void join() const;

  /// True once the target's body has returned.
  bool finished() const;

 private:
  friend class Engine;
  ProcessHandle(Engine* engine, ProcessId id) : engine_(engine), id_(id) {}
  Engine* engine_ = nullptr;
  ProcessId id_ = kNoProcess;
};

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Creates a process whose body starts at the spawner's current time
  /// (or at time 0 when spawned from outside run()). The rvalue overload
  /// steals the name's storage; the string_view/char* overloads copy the
  /// bytes exactly once. SmallFn keeps typical capture lists out of the
  /// heap entirely.
  ProcessHandle spawn(std::string&& name, SmallFn body);
  ProcessHandle spawn(std::string_view name, SmallFn body);
  ProcessHandle spawn(const char* name, SmallFn body) {
    return spawn(std::string_view(name), std::move(body));
  }

  /// Pre-sizes the process arena, ready queue, and stack pool for n
  /// processes, and maps the fiber stacks the next n spawns need in one
  /// batch. Optional — everything grows on demand — but a World that
  /// knows its rank count can avoid mid-run growth entirely.
  void reserve_processes(std::size_t n);

  /// Runs until no process is runnable. Rethrows the first exception a
  /// process body threw; throws DeadlockError if live processes remain
  /// blocked. Must be called from outside any simulated process.
  void run();

  /// Arms a one-shot crash point: the next run() stops before resuming any
  /// process scheduled at or after t, cancels every live process (fiber
  /// unwinding via ProcessCancelled), and returns normally with stopped()
  /// true. Models killing the job at virtual time t — no simulated work at
  /// or after t happens; surviving state (files, journals) reflects exactly
  /// what was durable before the crash. The arm is consumed by the next
  /// run() whether or not it fires, so a follow-up run() (e.g. a recovery
  /// pass spawned from outside) proceeds normally from the crash time.
  void stop_at(Time t) { stop_at_ = t; }

  /// True when the last run() was terminated by a stop_at() deadline rather
  /// than by natural completion. Reset at the start of every run().
  bool stopped() const { return stopped_; }

  /// Virtual time of the running process (or the last scheduled time when
  /// called from outside).
  Time now() const { return sim_time_; }

  // ---- Process-context operations (must run inside a simulated process) --

  /// Advances the caller's clock by d (>= 0); yields only if another
  /// process becomes due first.
  void delay(Time d);

  /// Advances the caller's clock to at least t; no-op if t is in the past.
  void advance_to(Time t);

  /// Reschedules the caller at its current time, behind peers at that time.
  void yield();

  /// Identity of the running process.
  ProcessId current() const;

  /// True when called from inside a simulated process (current() would
  /// succeed). Lets hooks that may run from either context decide whether
  /// they can charge virtual time.
  bool in_process() const { return current_ != nullptr; }

  /// log::ContextHook — reports the active engine's virtual time and the
  /// running process's name; false outside any simulated process.
  static bool log_context(std::int64_t& now_ns, std::string& name);

  /// Name of a live process (for diagnostics).
  const std::string& name_of(ProcessId pid) const;

  // ---- Low-level hooks for synchronization primitives --------------------

  /// Parks the running process until make_ready() is called for it. `why`
  /// appears in deadlock reports.
  void block(const char* why);

  /// Makes a blocked process runnable at max(its clock, not_before).
  /// Callable from any process context (and, for completion events computed
  /// by resource models, with not_before in the future).
  void make_ready(ProcessId pid, Time not_before);

  /// True while `pid` is parked in block(). Lets primitives skip stale
  /// waiter entries left behind by processes torn down mid-wait (error
  /// unwinding after a deadlock cancels every fiber; waking one would be
  /// fatal).
  bool is_blocked(ProcessId pid) const;

  /// Attaches (or detaches, with nullptr) the concurrency checker. The
  /// synchronization primitives and E10_SHARED_* instrumentation report
  /// through this hook; with no observer attached each hook is one branch.
  void set_concurrency_observer(ConcurrencyObserver* observer) {
    concurrency_observer_ = observer;
  }
  ConcurrencyObserver* concurrency_observer() const {
    return concurrency_observer_;
  }

  /// Attaches (or detaches, with nullptr) the causal-edge recorder
  /// (sim/causal.h). Synchronization sites across the stack report
  /// wake-up dependencies through this hook for post-run critical-path
  /// analysis; detached, each hook is one branch and nothing changes.
  void set_causal_observer(CausalObserver* observer) {
    causal_observer_ = observer;
  }
  CausalObserver* causal_observer() const { return causal_observer_; }

  /// Number of processes whose body has not yet returned.
  std::size_t live_processes() const { return live_; }

  /// Deterministic scheduler counters (see EngineStats). Safe to read at
  /// any point; typically sampled after run() returns.
  EngineStats stats() const {
    EngineStats s;
    s.events = events_;
    s.switches = switches_;
    s.spawned = process_count_;
    s.max_ready_depth = max_ready_depth_;
    s.stack_reuses = stack_reuses_;
    return s;
  }

  /// Fiber stack slot size. The slot's lowest page is the guard, so a
  /// process may use one page less; going past that faults (SIGSEGV).
  static constexpr std::size_t kStackBytes = 512 * 1024;

 private:
  struct Process {
    std::string name;
    ProcessId id = kNoProcess;
    Time clock = 0;
    enum class State { ready, running, blocked, finished } state = State::ready;
    const char* block_reason = nullptr;
    SmallFn body;
#if E10_FAST_FIBERS
    /// Saved stack pointer while suspended (fast-switch frame on the
    /// fiber's own stack).
    void* stack_pointer = nullptr;
#else
    ucontext_t context{};
#endif
    /// Base of the process's stack slot (its guard page); null once the
    /// slot is back in the pool.
    char* stack = nullptr;
    bool cancelled = false;
    std::exception_ptr error;
    std::vector<ProcessId> joiners;
    /// Causal emission of this process's finish (0 = none recorded).
    std::uint64_t finish_token = 0;
  };

  // Arena geometry: processes live in fixed-size chunks so addresses stay
  // stable as the table grows (the ready queue and current_ hold raw
  // pointers) and a spawn never moves or reallocates existing processes.
  static constexpr std::size_t kChunkShift = 6;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  friend class ProcessHandle;

  Process& proc(ProcessId pid) const;
  Process& allocate_process();
  /// One anonymous mapping of `slots` stack slots; the lowest `used`
  /// have been handed out.
  struct StackBatch {
    char* base = nullptr;
    std::size_t slots = 0;
    std::size_t used = 0;
  };

  char* acquire_stack();
  void release_stack(Process& p);
  void map_stacks(std::size_t slots);
  /// The usable range above a slot's guard page, which the ASan fiber
  /// hooks and the ucontext fallback are given.
  char* stack_bottom(const Process& p) const { return p.stack + guard_bytes_; }
  std::size_t stack_usable() const { return kStackBytes - guard_bytes_; }
  void prepare_fiber(Process& p);  // arms the trampoline on a fresh stack
  void insert_ready(Process& p);
  void resume(Process& p);         // engine context -> fiber
  void switch_to_engine();         // fiber -> engine context; rethrows cancel
  [[noreturn]] void finish_current();  // fiber epilogue; never returns
  void cancel_all();
  static void trampoline();        // fiber entry (uses current_run_target)

  std::vector<std::unique_ptr<Process[]>> chunks_;
  std::size_t process_count_ = 0;
  // Ready queue keyed by (virtual time, admission sequence); pops in the
  // exact order the original std::map iterated (ready_queue.h).
  ReadyQueue<Process*> ready_;
  // Fiber stack mappings, unmapped by ~Engine. Slots never handed out
  // are taken in batch order; retired ones wait in the pool for reuse.
  std::vector<StackBatch> stack_batches_;
  std::size_t fresh_batch_ = 0;  // first batch with a never-used slot
  std::size_t fresh_slots_ = 0;  // never-used slots over all batches
  std::vector<char*> stack_pool_;
  std::size_t guard_bytes_;      // one page
  std::uint64_t next_seq_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t max_ready_depth_ = 0;
  std::uint64_t stack_reuses_ = 0;
  Time sim_time_ = 0;
  std::optional<Time> stop_at_;
  bool stopped_ = false;
  Process* current_ = nullptr;
#if E10_FAST_FIBERS
  /// Engine-side saved stack pointer while a fiber runs.
  void* engine_stack_pointer_ = nullptr;
#else
  ucontext_t engine_context_{};
#endif
  /// Engine-side stack bounds, learned at the first fiber entry; fibers
  /// report them to ASan when switching back (no-ops without ASan).
  const void* asan_engine_stack_ = nullptr;
  std::size_t asan_engine_stack_size_ = 0;
  bool running_ = false;
  std::size_t live_ = 0;
  ConcurrencyObserver* concurrency_observer_ = nullptr;
  CausalObserver* causal_observer_ = nullptr;
};

}  // namespace e10::sim
