#include "sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <system_error>

#include "common/log.h"
#include "common/units.h"
#include "sim/causal.h"
#include "sim/concurrency.h"

// ASan cannot see through fiber switches on its own: a throw on a fiber
// stack (ProcessCancelled unwinding) or data handed between fiber stacks
// makes the runtime consult the wrong stack bounds and report false
// stack-buffer-overflow / stack-use-after-scope (google/sanitizers#189).
// The __sanitizer fiber hooks announce every stack switch; without ASan
// the wrappers below compile to nothing. Stack slots additionally need an
// explicit unpoison when handed out: a previous occupant's frame redzones
// stay poisoned after it exits (in this engine or, once the slot's batch
// is unmapped and its addresses mapped again, in an earlier one), and the
// next fiber lays out different frames over the same bytes.
#if defined(__SANITIZE_ADDRESS__)
#define E10_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define E10_ASAN_FIBERS 1
#endif
#endif
#ifndef E10_ASAN_FIBERS
#define E10_ASAN_FIBERS 0
#endif
#if E10_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if E10_FAST_FIBERS

// Minimal sysv x86-64 context switch. swapcontext() is a poor fit for
// cooperative fibers: every call makes a rt_sigprocmask syscall to
// save/restore the signal mask and copies the full mcontext — at half a
// million switches per sweep point that is pure overhead. The simulator
// never touches signal state from simulated code, so a switch only has to
// preserve what the sysv ABI says survives a call: rbp, rbx, r12-r15, the
// SSE control/status word, and the x87 control word. Saved frame, from the
// stored stack pointer upward:
//
//   sp +  0 : mxcsr (4 bytes) | x87 cw (2 bytes) | pad (2 bytes)
//   sp +  8 : r15
//   sp + 16 : r14
//   sp + 24 : r13
//   sp + 32 : r12
//   sp + 40 : rbx
//   sp + 48 : rbp
//   sp + 56 : return address
//
// e10_ctx_swap(save_sp, load_sp) pushes that frame on the current stack,
// publishes the resulting rsp through *save_sp, then adopts load_sp and
// unwinds the same layout — so "returning" happens on the other stack.
// Engine::prepare_fiber() forges the identical frame at the top of a fresh
// fiber stack with the return-address slot aimed at Engine::trampoline,
// which is how a first resume "returns" into the fiber body.
extern "C" void e10_ctx_swap(void** save_sp, void* load_sp);
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl e10_ctx_swap\n"
    ".hidden e10_ctx_swap\n"
    ".type e10_ctx_swap,@function\n"
    "e10_ctx_swap:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size e10_ctx_swap, .-e10_ctx_swap\n");

#endif  // E10_FAST_FIBERS

namespace e10::sim {

namespace {

#if E10_ASAN_FIBERS
/// Call directly before the context switch: `*fake` saves this side's
/// fake-stack handle (nullptr `fake` = this fiber is exiting for good),
/// bottom/size describe the destination stack.
void fiber_switch_begin(void** fake, const void* bottom, std::size_t size) {
  __sanitizer_start_switch_fiber(fake, bottom, size);
}
/// Call directly after gaining control: `fake` is the handle saved when
/// this side last suspended (nullptr on first entry); the out-params
/// receive the bounds of the stack we came from.
void fiber_switch_end(void* fake, const void** from_bottom,
                      std::size_t* from_size) {
  __sanitizer_finish_switch_fiber(fake, from_bottom, from_size);
}
/// Clears poison a previous occupant left on a stack slot's usable range.
void unpoison_stack(const void* bottom, std::size_t size) {
  __asan_unpoison_memory_region(bottom, size);
}
#else
void fiber_switch_begin(void**, const void*, std::size_t) {}
void fiber_switch_end(void*, const void**, std::size_t*) {}
void unpoison_stack(const void*, std::size_t) {}
#endif

/// The engine whose fiber is currently being started (trampoline target).
thread_local Engine* g_active_engine = nullptr;

/// Stack slots mapped at once when no reserve_processes() call asked for
/// more: 32 MiB of address space, none of it resident until touched.
constexpr std::size_t kStackBatch = 64;

[[noreturn]] void throw_stack_mapping_error(const char* call) {
  throw std::system_error(
      errno, std::generic_category(),
      std::string("sim::Engine: ") + call +
          " for fiber stacks failed; each live fiber holds two kernel "
          "mappings (its stack and its guard page), so vm.max_map_count "
          "(65530 by default) allows about half that many live fibers");
}

}  // namespace

void ProcessHandle::join() const {
  if (!valid()) throw std::logic_error("join on invalid ProcessHandle");
  Engine& eng = *engine_;
  Engine::Process& target = eng.proc(id_);
  const Time before = eng.now();
  if (target.state == Engine::Process::State::finished) {
    eng.advance_to(target.clock);
  } else {
    target.joiners.push_back(eng.current());
    eng.block("join");
  }
  // The join advanced the caller's clock: the target's finish gated us.
  if (CausalObserver* causal = eng.causal_observer();
      causal != nullptr && target.finish_token != 0 && eng.now() > before) {
    causal->ack(target.finish_token, eng.current(), eng.now());
  }
}

bool ProcessHandle::finished() const {
  if (!valid()) return false;
  return engine_->proc(id_).state == Engine::Process::State::finished;
}

Engine::Engine()
    : guard_bytes_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
  // Log lines emitted from inside simulated processes get a virtual-time +
  // process-name prefix. The hook is global and engine-agnostic: it reads
  // whichever engine is active on this thread at write time.
  log::set_context_hook(&Engine::log_context);
}

Engine::~Engine() {
  cancel_all();
  if (g_active_engine == this) g_active_engine = nullptr;
  for (const StackBatch& batch : stack_batches_) {
    munmap(batch.base, batch.slots * kStackBytes);
  }
}

bool Engine::log_context(std::int64_t& now_ns, std::string& name) {
  const Engine* engine = g_active_engine;
  if (engine == nullptr || engine->current_ == nullptr) return false;
  now_ns = engine->sim_time_;
  name = engine->current_->name;
  return true;
}

Engine::Process& Engine::proc(ProcessId pid) const {
  if (pid >= process_count_) {
    throw std::logic_error("unknown ProcessId");
  }
  return chunks_[pid >> kChunkShift][pid & kChunkMask];
}

Engine::Process& Engine::allocate_process() {
  const std::size_t slot = process_count_;
  if ((slot >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Process[]>(kChunkSize));
  }
  ++process_count_;
  return chunks_[slot >> kChunkShift][slot & kChunkMask];
}

char* Engine::acquire_stack() {
  char* slot = nullptr;
  if (!stack_pool_.empty()) {
    slot = stack_pool_.back();
    stack_pool_.pop_back();
    ++stack_reuses_;
  } else {
    if (fresh_slots_ == 0) map_stacks(kStackBatch);
    while (stack_batches_[fresh_batch_].used ==
           stack_batches_[fresh_batch_].slots) {
      ++fresh_batch_;
    }
    StackBatch& batch = stack_batches_[fresh_batch_];
    slot = batch.base + batch.used * kStackBytes;
    ++batch.used;
    --fresh_slots_;
  }
  unpoison_stack(slot + guard_bytes_, stack_usable());
  return slot;
}

void Engine::release_stack(Process& p) {
  stack_pool_.push_back(p.stack);
  p.stack = nullptr;
}

void Engine::map_stacks(std::size_t slots) {
  stack_batches_.reserve(stack_batches_.size() + 1);  // no throw once mapped
  const std::size_t bytes = slots * kStackBytes;
  // MAP_NORESERVE: a slot costs address space, not commit charge, until
  // its fiber touches it.
  void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mapped == MAP_FAILED) throw_stack_mapping_error("mmap");
  char* base = static_cast<char*>(mapped);
  // Each guard page splits the mapping, so every usable stack is a 508 KiB
  // mapping of its own that transparent huge pages cannot back with 2 MiB
  // pages; this also keeps smaller THP sizes from faulting in 64 KiB per
  // stack. Failure (a kernel without THP) changes nothing else.
  (void)madvise(base, bytes, MADV_NOHUGEPAGE);
  for (std::size_t i = 0; i < slots; ++i) {
    if (mprotect(base + i * kStackBytes, guard_bytes_, PROT_NONE) != 0) {
      const int error = errno;
      munmap(base, bytes);
      errno = error;
      throw_stack_mapping_error("mprotect");
    }
  }
  stack_batches_.push_back(StackBatch{base, slots, 0});
  fresh_slots_ += slots;
}

void Engine::reserve_processes(std::size_t n) {
  const std::size_t ready_stacks = stack_pool_.size() + fresh_slots_;
  if (n > ready_stacks) map_stacks(n - ready_stacks);
  chunks_.reserve((n + kChunkSize - 1) / kChunkSize);
  ready_.reserve(n);
  stack_pool_.reserve(n);
}

void Engine::prepare_fiber(Process& p) {
#if E10_FAST_FIBERS
  // Forge the e10_ctx_swap frame (layout documented at the asm above) at
  // the page-aligned top of the slot, so the first switch into this fiber
  // "returns" into trampoline() with the stack aligned exactly as the
  // psABI guarantees at function entry (rsp % 16 == 8), and the frame
  // touches one page, not two.
  char* frame = p.stack + kStackBytes - 72;
  std::memset(frame, 0, 72);
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  __asm__ volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(frame + 0, &mxcsr, sizeof(mxcsr));
  std::memcpy(frame + 4, &fcw, sizeof(fcw));
  void (*entry)() = &Engine::trampoline;
  auto entry_addr = reinterpret_cast<std::uintptr_t>(entry);
  std::memcpy(frame + 56, &entry_addr, sizeof(entry_addr));
  p.stack_pointer = frame;
#else
  if (getcontext(&p.context) != 0) {
    throw std::runtime_error("getcontext failed");
  }
  p.context.uc_stack.ss_sp = stack_bottom(p);
  p.context.uc_stack.ss_size = stack_usable();
  p.context.uc_link = &engine_context_;
  makecontext(&p.context, &Engine::trampoline, 0);
#endif
}

ProcessHandle Engine::spawn(std::string&& name, SmallFn body) {
  // Stack first: a spawn that cannot map one leaves no process behind.
  char* stack = acquire_stack();
  Process& p = allocate_process();
  p.name = std::move(name);
  p.id = process_count_ - 1;
  p.clock = current_ != nullptr ? current_->clock : sim_time_;
  p.body = std::move(body);
  p.state = Process::State::ready;
  p.stack = stack;
  prepare_fiber(p);
  ++live_;
  insert_ready(p);
  return ProcessHandle(this, p.id);
}

ProcessHandle Engine::spawn(std::string_view name, SmallFn body) {
  return spawn(std::string(name), std::move(body));
}

void Engine::insert_ready(Process& p) {
  ready_.push(p.clock, next_seq_++, &p);
  if (ready_.size() > max_ready_depth_) max_ready_depth_ = ready_.size();
}

void Engine::resume(Process& p) {
  current_ = &p;
  sim_time_ = p.clock;
  p.state = Process::State::running;
  ++switches_;
  g_active_engine = this;
  void* engine_fake_stack = nullptr;
  fiber_switch_begin(&engine_fake_stack, stack_bottom(p), stack_usable());
#if E10_FAST_FIBERS
  e10_ctx_swap(&engine_stack_pointer_, p.stack_pointer);
#else
  swapcontext(&engine_context_, &p.context);
#endif
  fiber_switch_end(engine_fake_stack, nullptr, nullptr);
  current_ = nullptr;
}

void Engine::switch_to_engine() {
  Process* self = current_;
  void* fiber_fake_stack = nullptr;
  fiber_switch_begin(&fiber_fake_stack, asan_engine_stack_,
                     asan_engine_stack_size_);
#if E10_FAST_FIBERS
  e10_ctx_swap(&self->stack_pointer, engine_stack_pointer_);
#else
  swapcontext(&self->context, &engine_context_);
#endif
  fiber_switch_end(fiber_fake_stack, nullptr, nullptr);
  // Resumed: the scheduler restored current_/sim_time_ for us.
  if (self->cancelled) throw ProcessCancelled{};
}

void Engine::trampoline() {
  Engine& eng = *g_active_engine;
  // First entry on this fiber's stack: no saved handle to restore; record
  // where we came from — the engine context's own stack.
  fiber_switch_end(nullptr, &eng.asan_engine_stack_,
                   &eng.asan_engine_stack_size_);
  Process& p = *eng.current_;
  try {
    if (p.cancelled) throw ProcessCancelled{};
    p.body();
  } catch (const ProcessCancelled&) {
    // Engine teardown: unwind silently.
  } catch (...) {
    p.error = std::current_exception();
  }
  eng.finish_current();
}

void Engine::finish_current() {
  Process& p = *current_;
  p.state = Process::State::finished;
  if (!p.cancelled) {
    if (causal_observer_ != nullptr) {
      p.finish_token =
          causal_observer_->emit(EdgeKind::process, p.id, p.clock);
    }
    for (const ProcessId j : p.joiners) make_ready(j, p.clock);
    p.joiners.clear();
  }
  p.body = nullptr;  // release captured state eagerly
  // Final departure from this stack: a null save slot tells ASan to
  // release the fiber's fake stack instead of parking it.
  fiber_switch_begin(nullptr, asan_engine_stack_, asan_engine_stack_size_);
#if E10_FAST_FIBERS
  void* discard = nullptr;
  e10_ctx_swap(&discard, engine_stack_pointer_);
#else
  swapcontext(&p.context, &engine_context_);
#endif
  // Never reached: finished fibers are not resumed.
  std::abort();
}

void Engine::run() {
  if (running_) throw std::logic_error("Engine::run is not reentrant");
  if (current_ != nullptr) {
    throw std::logic_error("Engine::run from inside a simulated process");
  }
  running_ = true;
  stopped_ = false;
  std::exception_ptr error;
  while (!ready_.empty()) {
    // Crash point: nothing scheduled at or after the stop time runs. The
    // break (not a throw) leaves surviving state intact for a recovery pass.
    if (stop_at_.has_value() && ready_.top().time >= *stop_at_) {
      stopped_ = true;
      break;
    }
    Process* p = ready_.pop().item;
    ++events_;
    resume(*p);
    if (p->state == Process::State::finished) {
      --live_;
      release_stack(*p);
      if (p->error != nullptr) {
        error = p->error;
        p->error = nullptr;
        break;
      }
    }
  }
  running_ = false;
  // One-shot in every outcome: fired, run ended first, or errored — a
  // follow-up run() (e.g. a post-crash recovery pass) proceeds normally.
  const std::optional<Time> stop = stop_at_;
  stop_at_.reset();
  if (error != nullptr) {
    cancel_all();
    std::rethrow_exception(error);
  }
  if (stopped_) {
    cancel_all();
    // cancel_all resumed each victim at its own clock (possibly scheduled
    // past the stop); the crash itself defines the world clock, so pin it
    // to the stop time for post-crash spawns.
    sim_time_ = *stop;
    return;
  }
  if (live_ > 0) {
    std::ostringstream os;
    os << "deadlock: " << live_ << " live process(es), none runnable:";
    for (ProcessId pid = 0; pid < process_count_; ++pid) {
      const Process& p = proc(pid);
      if (p.state == Process::State::blocked) {
        os << " [" << p.name << " blocked on "
           << (p.block_reason != nullptr ? p.block_reason : "?") << " at t="
           << format_time(p.clock);
        if (concurrency_observer_ != nullptr) {
          const std::string locks =
              concurrency_observer_->describe_process(p.id);
          if (!locks.empty()) os << " " << locks;
        }
        os << "]";
      }
    }
    cancel_all();
    throw DeadlockError(os.str());
  }
}

void Engine::delay(Time d) {
  if (current_ == nullptr) {
    throw std::logic_error("Engine::delay outside process context");
  }
  if (d < 0) throw std::logic_error("Engine::delay with negative duration");
  Process& p = *current_;
  p.clock += d;
  // Fast path: nobody else is due strictly before our new time, so keep
  // running without a scheduler round trip. Ties still yield (FIFO). An
  // armed crash point due at or before the new clock forces the slow path
  // so the scheduler can stop the run instead of sailing past it.
  if ((ready_.empty() || ready_.top().time > p.clock) &&
      !(stop_at_.has_value() && p.clock >= *stop_at_)) {
    sim_time_ = p.clock;
    return;
  }
  p.state = Process::State::ready;
  insert_ready(p);
  switch_to_engine();
}

void Engine::advance_to(Time t) {
  if (current_ == nullptr) {
    throw std::logic_error("Engine::advance_to outside process context");
  }
  if (t <= current_->clock) return;
  delay(t - current_->clock);
}

void Engine::yield() { delay(0); }

ProcessId Engine::current() const {
  if (current_ == nullptr) {
    throw std::logic_error("Engine::current outside process context");
  }
  return current_->id;
}

const std::string& Engine::name_of(ProcessId pid) const {
  return proc(pid).name;
}

void Engine::block(const char* why) {
  if (current_ == nullptr) {
    throw std::logic_error("Engine::block outside process context");
  }
  Process& p = *current_;
  p.state = Process::State::blocked;
  p.block_reason = why;
  switch_to_engine();
}

bool Engine::is_blocked(ProcessId pid) const {
  return proc(pid).state == Process::State::blocked;
}

void Engine::make_ready(ProcessId pid, Time not_before) {
  Process& target = proc(pid);
  if (target.state != Process::State::blocked) {
    throw std::logic_error("make_ready on process '" + target.name +
                           "' that is not blocked");
  }
  target.clock = std::max(target.clock, not_before);
  target.state = Process::State::ready;
  target.block_reason = nullptr;
  insert_ready(target);
}

void Engine::cancel_all() {
  if (current_ != nullptr) {
    throw std::logic_error("Engine::cancel_all from a simulated process");
  }
  for (ProcessId pid = 0; pid < process_count_; ++pid) {
    Process& p = proc(pid);
    if (p.state == Process::State::finished) continue;
    p.cancelled = true;
    resume(p);  // unwinds via ProcessCancelled, returns finished
    release_stack(p);
  }
  ready_.clear();
  live_ = 0;
}

}  // namespace e10::sim
