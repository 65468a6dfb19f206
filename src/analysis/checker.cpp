#include "analysis/checker.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/units.h"

namespace e10::analysis {

ConcurrencyChecker::ConcurrencyChecker(sim::Engine& engine) : engine_(engine) {
  engine_.set_concurrency_observer(this);
}

ConcurrencyChecker::~ConcurrencyChecker() {
  if (engine_.concurrency_observer() == this) {
    engine_.set_concurrency_observer(nullptr);
  }
}

std::size_t ConcurrencyChecker::intern_lock(sim::LockId lock,
                                            sim::LockKind kind,
                                            const std::string& name) {
  auto [it, inserted] = lock_index_.try_emplace(lock, locks_.size());
  if (inserted) {
    locks_.push_back(LockRec{name, kind});
  } else {
    // An unregistered id seen again (an extent lock, or a monitor over an
    // object that never registers) keeps its slot and takes the latest
    // identity.
    LockRec& rec = locks_[it->second];
    rec.name = name;
    rec.kind = kind;
  }
  return it->second;
}

void ConcurrencyChecker::on_acquiring(sim::ProcessId pid, sim::LockId lock,
                                      sim::LockKind kind,
                                      const std::string& name) {
  const std::size_t idx = intern_lock(lock, kind, name);
  ProcState& ps = proc(pid);
  ps.waiting = idx;
  if (kind == sim::LockKind::monitor) return;
  // Order-graph edges: every blocking lock already held orders before the
  // one being acquired. Monitors never block, so they contribute no edges.
  for (const std::size_t held : ps.held) {
    if (held == idx) continue;  // re-entrant claim of the same lock
    if (locks_[held].kind == sim::LockKind::monitor) continue;
    auto [it, inserted] = edges_.try_emplace(std::make_pair(held, idx));
    if (inserted) {
      it->second.example = locks_[held].name + " -> " + locks_[idx].name +
                           " by " + engine_.name_of(pid) + " at t=" +
                           format_time(engine_.now());
    }
  }
}

void ConcurrencyChecker::on_acquired(sim::ProcessId pid, sim::LockId lock,
                                     sim::LockKind kind,
                                     const std::string& name) {
  const std::size_t idx = intern_lock(lock, kind, name);
  ProcState& ps = proc(pid);
  ps.waiting = kNone;
  ps.held.push_back(idx);
  ++lock_acquisitions_;
  std::size_t depth = 0;
  for (const std::size_t held : ps.held) {
    if (locks_[held].kind != sim::LockKind::monitor) ++depth;
  }
  max_lock_depth_ = std::max(max_lock_depth_, depth);
}

void ConcurrencyChecker::on_released(sim::ProcessId pid, sim::LockId lock) {
  const auto it = lock_index_.find(lock);
  if (it == lock_index_.end()) return;  // acquired before the checker attached
  ProcState& ps = proc(pid);
  // Release the most recent claim (locks are used in RAII/stack order, but
  // searching backwards also handles out-of-order unlocks).
  const auto pos = std::find(ps.held.rbegin(), ps.held.rend(), it->second);
  if (pos != ps.held.rend()) ps.held.erase(std::next(pos).base());
}

void ConcurrencyChecker::report_race(VarState& var, sim::ProcessId pid,
                                     bool is_write, const char* site) {
  const std::size_t var_idx =
      static_cast<std::size_t>(&var - vars_.data());
  if (!reported_.emplace(var_idx, site).second) return;  // one per site
  RaceFinding finding;
  finding.var = var.name;
  finding.site = site;
  finding.process = engine_.name_of(pid);
  finding.write = is_write;
  finding.prior_site = var.last_site;
  finding.prior_process = var.last_process;
  finding.at = engine_.now();
  races_.push_back(std::move(finding));
}

void ConcurrencyChecker::on_shared_access(sim::ProcessId pid, const void* key,
                                          const std::string& name,
                                          bool is_write, const char* site) {
  ++shared_accesses_;
  auto [it, inserted] = var_index_.try_emplace(key, vars_.size());
  if (inserted) {
    VarState fresh;
    fresh.name = name;
    vars_.push_back(std::move(fresh));
  }
  VarState& var = vars_[it->second];
  var.name = name;  // an unregistered key seen again, as for locks
  ProcState& ps = proc(pid);

  // Eraser state machine: C(v) starts as all locks held at the first
  // second-owner access and shrinks to the intersection across accesses.
  // An empty C(v) on a shared-modified variable means no common lock.
  std::set<std::size_t> held(ps.held.begin(), ps.held.end());
  switch (var.state) {
    case VarState::S::virgin:
      var.state = VarState::S::exclusive;
      var.owner = pid;
      break;
    case VarState::S::exclusive:
      if (var.owner != pid) {
        var.lockset = std::move(held);
        var.state = is_write ? VarState::S::shared_modified
                             : VarState::S::shared;
        if (var.state == VarState::S::shared_modified && var.lockset.empty()) {
          report_race(var, pid, is_write, site);
        }
      }
      break;
    case VarState::S::shared:
    case VarState::S::shared_modified: {
      std::set<std::size_t> refined;
      std::set_intersection(var.lockset.begin(), var.lockset.end(),
                            held.begin(), held.end(),
                            std::inserter(refined, refined.begin()));
      var.lockset = std::move(refined);
      if (is_write) var.state = VarState::S::shared_modified;
      if (var.state == VarState::S::shared_modified && var.lockset.empty()) {
        report_race(var, pid, is_write, site);
      }
      break;
    }
  }
  var.last_site = site;
  var.last_process = engine_.name_of(pid);
}

void ConcurrencyChecker::on_handoff(const void* key) {
  const auto it = var_index_.find(key);
  if (it == var_index_.end()) return;
  // Explicit ownership transfer (e.g. destruction + re-registration):
  // restart the state machine, keeping the last access for reports.
  VarState& var = vars_[it->second];
  var.state = VarState::S::virgin;
  var.owner = sim::kNoProcess;
  var.lockset.clear();
}

// Registration drops the id's slot, so the object's first event interns a
// new one: a reused address counts as a new object, and the counts in the
// report do not depend on heap layout.
void ConcurrencyChecker::on_lock_created(sim::LockId lock) {
  lock_index_.erase(lock);
}

void ConcurrencyChecker::on_shared_created(const void* key) {
  var_index_.erase(key);
}

std::string ConcurrencyChecker::describe_process(sim::ProcessId pid) const {
  const auto it = processes_.find(pid);
  if (it == processes_.end()) return "";
  const ProcState& ps = it->second;
  std::string out;
  if (!ps.held.empty()) {
    out += " holding {";
    for (std::size_t i = 0; i < ps.held.size(); ++i) {
      if (i > 0) out += ", ";
      out += locks_[ps.held[i]].name;
    }
    out += "}";
  }
  if (ps.waiting != kNone) {
    out += " acquiring " + std::string(sim::to_string(locks_[ps.waiting].kind)) +
           " " + locks_[ps.waiting].name;
  }
  return out;
}

std::vector<OrderEdge> ConcurrencyChecker::order_edges() const {
  std::vector<OrderEdge> out;
  out.reserve(edges_.size());
  for (const auto& [key, edge] : edges_) {
    const LockRec& before = locks_[key.first];
    const LockRec& after = locks_[key.second];
    out.push_back(
        {before.name, after.name, before.kind, after.kind, edge.example});
  }
  return out;
}

AnalysisSummary ConcurrencyChecker::summary() const {
  AnalysisSummary s;
  s.races = races_;
  s.shared_vars = vars_.size();
  s.shared_accesses = shared_accesses_;
  s.locks_tracked = locks_.size();
  s.lock_acquisitions = lock_acquisitions_;
  s.max_lock_depth = max_lock_depth_;

  // Cycle detection over the acquisition-order graph: a strongly connected
  // component with more than one lock (self-edges are filtered at insert)
  // means some pair of locks is acquired in both orders. Iterative Tarjan
  // in dense-id order keeps the output deterministic.
  const std::size_t n = locks_.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [key, edge] : edges_) adj[key.first].push_back(key.second);

  std::vector<std::size_t> index(n, kNone), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;
  std::vector<std::vector<std::size_t>> sccs;

  struct Frame {
    std::size_t v;
    std::size_t child = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    std::vector<Frame> frames{Frame{root}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child == 0) {
        index[f.v] = low[f.v] = next_index++;
        stack.push_back(f.v);
        on_stack[f.v] = true;
      }
      if (f.child < adj[f.v].size()) {
        const std::size_t w = adj[f.v][f.child++];
        if (index[w] == kNone) {
          frames.push_back(Frame{w});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          std::vector<std::size_t> scc;
          std::size_t w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
          } while (w != f.v);
          if (scc.size() > 1) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
        const std::size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  // Tarjan emits SCCs in reverse topological order; re-sort by smallest
  // member so the report order matches first-acquisition order.
  std::sort(sccs.begin(), sccs.end());
  for (const auto& scc : sccs) {
    CycleFinding finding;
    for (const std::size_t v : scc) finding.locks.push_back(locks_[v].name);
    for (const auto& [key, edge] : edges_) {
      const bool internal =
          std::binary_search(scc.begin(), scc.end(), key.first) &&
          std::binary_search(scc.begin(), scc.end(), key.second);
      if (internal) finding.edges.push_back(edge.example);
    }
    s.cycles.push_back(std::move(finding));
  }
  return s;
}

obs::Json ConcurrencyChecker::to_json() const {
  const AnalysisSummary s = summary();
  const auto count = [](std::size_t v) {
    return obs::Json::integer(static_cast<std::int64_t>(v));
  };
  obs::Json out = obs::Json::object();
  out.set("enabled", obs::Json::boolean(true));
  out.set("shared_vars", count(s.shared_vars));
  out.set("shared_accesses", count(s.shared_accesses));
  out.set("locks_tracked", count(s.locks_tracked));
  out.set("lock_acquisitions", count(s.lock_acquisitions));
  out.set("max_lock_depth", count(s.max_lock_depth));
  out.set("races_found", count(s.races.size()));
  out.set("cycles_found", count(s.cycles.size()));

  obs::Json races = obs::Json::array();
  for (const RaceFinding& race : s.races) {
    obs::Json j = obs::Json::object();
    j.set("var", obs::Json::str(race.var));
    j.set("site", obs::Json::str(race.site));
    j.set("process", obs::Json::str(race.process));
    j.set("write", obs::Json::boolean(race.write));
    j.set("prior_site", obs::Json::str(race.prior_site));
    j.set("prior_process", obs::Json::str(race.prior_process));
    j.set("t", obs::Json::str(format_time(race.at)));
    races.push(std::move(j));
  }
  out.set("races", std::move(races));

  obs::Json cycles = obs::Json::array();
  for (const CycleFinding& cycle : s.cycles) {
    obs::Json j = obs::Json::object();
    obs::Json locks = obs::Json::array();
    for (const std::string& name : cycle.locks) {
      locks.push(obs::Json::str(name));
    }
    j.set("locks", std::move(locks));
    obs::Json edges = obs::Json::array();
    for (const std::string& e : cycle.edges) edges.push(obs::Json::str(e));
    j.set("edges", std::move(edges));
    cycles.push(std::move(j));
  }
  out.set("lock_order_cycles", std::move(cycles));
  return out;
}

}  // namespace e10::analysis
