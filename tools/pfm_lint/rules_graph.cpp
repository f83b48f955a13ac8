#include "std_regex.hpp"  // first: see the header
#include "model.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

// The three graph-aware rule families. All of them consume the
// ProjectModel (function extents + call graph) rather than raw lines, so
// a violation two calls away from an annotated entry point is the same
// finding as one written inline.

namespace pfm::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule: hotpath — transitive closure from // pfm-hot seeds
// ---------------------------------------------------------------------------

bool std_qualified_at(const std::string& seg, std::size_t pos) {
  return pos >= 5 && seg.compare(pos - 5, 5, "std::") == 0;
}

// Scans one body line for hot-path violations and reports them through
// `report(check, message_fragment)`.
void scan_hot_line(
    const std::string& seg,
    const std::function<void(const char*, std::string)>& report) {
  // Heap allocation.
  for (std::size_t pos = seg.find("new"); pos != std::string::npos;
       pos = seg.find("new", pos + 1)) {
    if (!token_at(seg, pos, "new")) continue;
    report("allocation", "'new' allocates");
  }
  for (const char* name : {"make_unique", "make_shared"}) {
    for (std::size_t pos = seg.find(name); pos != std::string::npos;
         pos = seg.find(name, pos + 1)) {
      if (!token_at(seg, pos, name)) continue;
      report("allocation", std::string("'") + name + "' allocates");
    }
  }
  for (std::size_t pos = seg.find("to_string"); pos != std::string::npos;
       pos = seg.find("to_string", pos + 1)) {
    if (!token_at(seg, pos, "to_string")) continue;
    std::size_t after = pos + std::strlen("to_string");
    while (after < seg.size() && seg[after] == ' ') ++after;
    if (after >= seg.size() || seg[after] != '(') continue;
    report("allocation", "'std::to_string' builds a heap string");
  }
  // std::string construction (declarations and temporaries; references
  // and pointers pass through).
  for (std::size_t pos = seg.find("string"); pos != std::string::npos;
       pos = seg.find("string", pos + 1)) {
    if (!token_at(seg, pos, "string") || !std_qualified_at(seg, pos)) continue;
    std::size_t after = pos + std::strlen("string");
    while (after < seg.size() && seg[after] == ' ') ++after;
    if (after >= seg.size()) continue;
    const char c = seg[after];
    if (is_ident(c) || c == '(' || c == '{') {
      report("allocation", "'std::string' constructed");
    }
  }
  // Owning-container declarations.
  static const char* kContainers[] = {
      "vector", "deque", "list", "set", "map", "multimap", "multiset",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "priority_queue", "basic_string"};
  for (const char* name : kContainers) {
    for (std::size_t pos = seg.find(name); pos != std::string::npos;
         pos = seg.find(name, pos + 1)) {
      if (!token_at(seg, pos, name) || !std_qualified_at(seg, pos)) continue;
      std::size_t open = pos + std::strlen(name);
      while (open < seg.size() && seg[open] == ' ') ++open;
      if (open >= seg.size() || seg[open] != '<') continue;
      std::size_t after = past_angle_list(seg, open);
      if (after == std::string::npos) continue;  // multi-line decl
      while (after < seg.size() && seg[after] == ' ') ++after;
      if (after < seg.size() && is_ident(seg[after]) &&
          !token_at(seg, after, "npos")) {
        report("allocation",
               std::string("local 'std::") + name + "' declared");
      }
    }
  }
  // std::function by value.
  for (std::size_t pos = seg.find("function"); pos != std::string::npos;
       pos = seg.find("function", pos + 1)) {
    if (!token_at(seg, pos, "function") || !std_qualified_at(seg, pos)) {
      continue;
    }
    std::size_t open = pos + std::strlen("function");
    while (open < seg.size() && seg[open] == ' ') ++open;
    if (open >= seg.size() || seg[open] != '<') continue;
    std::size_t after = past_angle_list(seg, open);
    if (after == std::string::npos) continue;
    while (after < seg.size() && seg[after] == ' ') ++after;
    if (after < seg.size() && (seg[after] == '&' || seg[after] == '*')) {
      continue;
    }
    report("allocation", "'std::function' owned by value");
  }
  // throw.
  for (std::size_t pos = seg.find("throw"); pos != std::string::npos;
       pos = seg.find("throw", pos + 1)) {
    if (!token_at(seg, pos, "throw")) continue;
    report("throw", "'throw' raises");
  }
  // Mutex acquisition.
  for (const char* name :
       {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"}) {
    for (std::size_t pos = seg.find(name); pos != std::string::npos;
         pos = seg.find(name, pos + 1)) {
      if (!token_at(seg, pos, name)) continue;
      report("mutex", std::string("'") + name + "' acquires a lock");
    }
  }
  for (const char* pat : {".lock(", "->lock("}) {
    for (std::size_t pos = seg.find(pat); pos != std::string::npos;
         pos = seg.find(pat, pos + 1)) {
      report("mutex", "explicit '.lock()' acquires a lock");
    }
  }
  // Stream / console I/O.
  for (const char* name :
       {"cout", "cerr", "clog", "printf", "fprintf", "sprintf", "snprintf",
        "puts", "fputs", "ofstream", "ifstream", "fstream", "stringstream",
        "ostringstream", "istringstream", "getline"}) {
    for (std::size_t pos = seg.find(name); pos != std::string::npos;
         pos = seg.find(name, pos + 1)) {
      if (!token_at(seg, pos, name)) continue;
      report("stream-io", std::string("'") + name + "' performs stream I/O");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: walltaint — wall-clock values flowing into sim-time exports
// ---------------------------------------------------------------------------

struct BodyLine {
  std::size_t line = 0;
  std::string seg;
};

std::vector<BodyLine> body_lines(const FunctionDef& fn) {
  std::vector<BodyLine> out;
  for_each_body_line(fn, [&](std::size_t line, const std::string& seg) {
    out.push_back({line, seg});
  });
  return out;
}

bool has_token_of(const std::string& seg, const std::set<std::string>& names) {
  for (const auto& name : names) {
    for (std::size_t pos = seg.find(name); pos != std::string::npos;
         pos = seg.find(name, pos + 1)) {
      if (token_at(seg, pos, name)) return true;
    }
  }
  return false;
}

// Does this expression carry wall time? Sources: the wall clocks
// themselves, file-local aliases of them, calls to functions known to
// return wall durations, and variables already tainted in this scope.
bool expr_tainted(const std::string& expr,
                  const std::set<std::string>& aliases,
                  const std::set<std::string>& tainted_fns,
                  const std::set<std::string>& vars) {
  static const std::set<std::string> kClocks = {"steady_clock",
                                                "high_resolution_clock"};
  return has_token_of(expr, kClocks) || has_token_of(expr, aliases) ||
         has_token_of(expr, tainted_fns) || has_token_of(expr, vars);
}

// Joins seg with up to `extra` following body lines (for call arguments
// and registrations that span lines).
std::string joined_window(const std::vector<BodyLine>& lines,
                          std::size_t index, std::size_t extra) {
  std::string out = lines[index].seg;
  for (std::size_t j = 1; j <= extra && index + j < lines.size(); ++j) {
    out += " " + lines[index + j].seg;
  }
  return out;
}

// Tainted local variables of one function body under the current
// tainted-function set. Two passes give assignment-chain transitivity
// (a = wall(); b = a;) independent of statement order.
std::set<std::string> tainted_vars(const std::vector<BodyLine>& lines,
                                   const std::set<std::string>& aliases,
                                   const std::set<std::string>& tainted_fns) {
  std::set<std::string> vars;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& bl : lines) {
      const std::string& seg = bl.seg;
      for (std::size_t i = 0; i < seg.size(); ++i) {
        if (seg[i] != '=') continue;
        const char prev = i > 0 ? seg[i - 1] : '\0';
        const char next = i + 1 < seg.size() ? seg[i + 1] : '\0';
        if (next == '=' || std::strchr("=!<>+-*/%&|^", prev)) continue;
        std::size_t end = i;
        while (end > 0 && (seg[end - 1] == ' ' || seg[end - 1] == '\t')) {
          --end;
        }
        std::size_t begin = end;
        while (begin > 0 && is_ident(seg[begin - 1])) --begin;
        if (begin == end) continue;
        const std::string lhs = seg.substr(begin, end - begin);
        std::string rhs = seg.substr(i + 1);
        const std::size_t semi = rhs.find(';');
        if (semi != std::string::npos) rhs.resize(semi);
        if (expr_tainted(rhs, aliases, tainted_fns, vars)) {
          vars.insert(lhs);
        }
      }
    }
  }
  return vars;
}

bool returns_tainted(const std::vector<BodyLine>& lines,
                     const std::set<std::string>& aliases,
                     const std::set<std::string>& tainted_fns,
                     const std::set<std::string>& vars) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& seg = lines[i].seg;
    for (std::size_t pos = seg.find("return"); pos != std::string::npos;
         pos = seg.find("return", pos + 1)) {
      if (!token_at(seg, pos, "return")) continue;
      std::string expr = seg.substr(pos + 6);
      for (std::size_t j = 1; j <= 3 && i + j < lines.size(); ++j) {
        if (expr.find(';') != std::string::npos) break;
        expr += " " + lines[i + j].seg;
      }
      const std::size_t semi = expr.find(';');
      if (semi != std::string::npos) expr.resize(semi);
      if (expr_tainted(expr, aliases, tainted_fns, vars)) return true;
    }
  }
  return false;
}

// Call-argument window: text from the '(' at `open` to its match,
// joining following lines when it does not close locally.
std::string call_args(const std::vector<BodyLine>& lines, std::size_t index,
                      std::size_t open) {
  std::string window = joined_window(lines, index, 3);
  int depth = 0;
  for (std::size_t i = open; i < window.size(); ++i) {
    if (window[i] == '(') ++depth;
    if (window[i] == ')' && --depth == 0) {
      return window.substr(open + 1, i - open - 1);
    }
  }
  return window.substr(open + 1);
}

// ---------------------------------------------------------------------------
// Rule: lockdiscipline — PFM_GUARDED_BY vs. actual lock scopes
// ---------------------------------------------------------------------------

struct LockEvent {
  enum Kind { Open, Close, Acquire, Release, Access } kind = Open;
  std::size_t col = 0;
  std::string cap;    // Acquire/Release
  std::string field;  // Access
};

void add_regex_events(const std::string& seg, const std::regex& re,
                      LockEvent::Kind kind, std::vector<LockEvent>* events) {
  for (auto it = std::sregex_iterator(seg.begin(), seg.end(), re);
       it != std::sregex_iterator(); ++it) {
    LockEvent ev;
    ev.kind = kind;
    ev.col = static_cast<std::size_t>(it->position(0));
    ev.cap = (*it)[1].str();
    events->push_back(ev);
  }
}

}  // namespace

void rule_hotpath(const ProjectModel& model, std::vector<Finding>* findings) {
  const std::size_t n = model.functions.size();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> origin(n, kNone);
  std::vector<std::size_t> via(n, kNone);
  std::vector<std::size_t> hops(n, 0);
  std::deque<std::size_t> queue;

  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = model.functions[i];
    if (fn.hot && !fn.cold) {
      origin[i] = i;
      queue.push_back(i);
    }
  }

  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    const FunctionDef& fn = model.functions[u];

    std::string context;
    if (hops[u] == 0) {
      context = "in pfm-hot function '" + fn.display + "'";
    } else {
      context = "in '" + fn.display + "', reached from pfm-hot '" +
                model.functions[origin[u]].display + "'";
      if (hops[u] > 1) {
        context += " via '" + model.functions[via[u]].display + "' (" +
                   std::to_string(hops[u]) + " calls deep)";
      }
    }

    for_each_body_line(fn, [&](std::size_t line, const std::string& seg) {
      scan_hot_line(seg, [&](const char* check, std::string what) {
        emit(findings, *fn.file, line, "hotpath", check,
             what + " " + context +
                 "; hoist to setup / pre-reserved scratch, or mark the "
                 "slow path // pfm-cold");
      });
    });

    for (const std::size_t v : fn.calls) {
      if (origin[v] != kNone) continue;
      if (model.functions[v].cold) continue;
      origin[v] = origin[u];
      via[v] = u;
      hops[v] = hops[u] + 1;
      queue.push_back(v);
    }
  }
}

void rule_walltaint(const ProjectModel& model, std::vector<Finding>* findings) {
  // Fixpoint: which project functions return wall-derived values.
  std::set<std::string> tainted_fns;
  std::vector<std::vector<BodyLine>> bodies(model.functions.size());
  for (std::size_t i = 0; i < model.functions.size(); ++i) {
    bodies[i] = body_lines(model.functions[i]);
  }
  for (int iter = 0; iter < 10; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < model.functions.size(); ++i) {
      const FunctionDef& fn = model.functions[i];
      if (tainted_fns.count(fn.name)) continue;
      const auto alias_it = model.wall_aliases.find(fn.file->rel_path);
      static const std::set<std::string> kNoAliases;
      const auto& aliases = alias_it != model.wall_aliases.end()
                                ? alias_it->second
                                : kNoAliases;
      const auto vars = tainted_vars(bodies[i], aliases, tainted_fns);
      if (returns_tainted(bodies[i], aliases, tainted_fns, vars)) {
        tainted_fns.insert(fn.name);
        changed = true;
      }
    }
    if (!changed) break;
  }

  static const std::regex kInstrumentSink(
      R"(([A-Za-z_]\w*)\s*(?:\.|->)\s*(inc|observe|set|add)\s*\()");
  static const std::regex kScopedSpan(
      R"(\bScopedSpan\s+\w+\s*[({])");

  for (std::size_t i = 0; i < model.functions.size(); ++i) {
    const FunctionDef& fn = model.functions[i];
    const auto alias_it = model.wall_aliases.find(fn.file->rel_path);
    static const std::set<std::string> kNoAliases;
    const auto& aliases = alias_it != model.wall_aliases.end()
                              ? alias_it->second
                              : kNoAliases;
    const auto vars = tainted_vars(bodies[i], aliases, tainted_fns);
    auto tainted = [&](const std::string& expr) {
      return expr_tainted(expr, aliases, tainted_fns, vars);
    };

    for (std::size_t li = 0; li < bodies[i].size(); ++li) {
      const std::string& seg = bodies[i][li].seg;
      const std::size_t line = bodies[i][li].line;

      // Sim-clocked metric instruments.
      for (auto it = std::sregex_iterator(seg.begin(), seg.end(),
                                          kInstrumentSink);
           it != std::sregex_iterator(); ++it) {
        const std::string receiver = (*it)[1].str();
        const auto inst = model.instruments.find(receiver);
        if (inst == model.instruments.end() || !inst->second.sim) continue;
        const std::size_t open =
            static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
        if (tainted(call_args(bodies[i], li, open))) {
          emit(findings, *fn.file, line, "walltaint", "wall-into-sim-metric",
               "wall-clock value flows into '" + receiver +
                   "', registered as a sim-time instrument (" +
                   inst->second.file + ":" +
                   std::to_string(inst->second.line) +
                   "); use sim time, or register the instrument with "
                   "obs::Clock::kWall");
        }
      }

      // Sim-time trace emission.
      for (std::size_t pos = seg.find("set_sim_end");
           pos != std::string::npos; pos = seg.find("set_sim_end", pos + 1)) {
        if (!token_at(seg, pos, "set_sim_end")) continue;
        const std::size_t open = seg.find('(', pos);
        if (open == std::string::npos) continue;
        if (seg.find('{', pos) < open) continue;  // definition header
        if (tainted(call_args(bodies[i], li, open))) {
          emit(findings, *fn.file, line, "walltaint", "wall-into-sim-trace",
               "wall-clock value passed to set_sim_end(); span sim "
               "boundaries must be sim time");
        }
      }
      for (std::size_t pos = seg.find("record_instant");
           pos != std::string::npos;
           pos = seg.find("record_instant", pos + 1)) {
        if (!token_at(seg, pos, "record_instant")) continue;
        const std::size_t open = seg.find('(', pos);
        if (open == std::string::npos) continue;
        if (tainted(call_args(bodies[i], li, open))) {
          emit(findings, *fn.file, line, "walltaint", "wall-into-sim-trace",
               "wall-clock value passed to record_instant(); instant "
               "events are stamped in sim time");
        }
      }
      for (auto it = std::sregex_iterator(seg.begin(), seg.end(),
                                          kScopedSpan);
           it != std::sregex_iterator(); ++it) {
        const std::size_t open =
            static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
        if (tainted(call_args(bodies[i], li, open))) {
          emit(findings, *fn.file, line, "walltaint", "wall-into-sim-trace",
               "wall-clock value passed to a ScopedSpan constructor; "
               "span sim boundaries must be sim time");
        }
      }
    }
  }
}

void rule_lockdiscipline(const ProjectModel& model,
                         std::vector<Finding>* findings) {
  static const std::regex kScopedAcquire(
      R"(\b(?:MutexLock|RoleGuard)\s+\w+\s*\(\s*([A-Za-z_]\w*))");
  static const std::regex kStdAcquire(
      R"(\b(?:lock_guard|unique_lock|scoped_lock)\s*(?:<[^<>]*>)?\s+\w+\s*[({]\s*([A-Za-z_]\w*))");
  static const std::regex kManualAcquire(
      R"(([A-Za-z_]\w*)\s*\.\s*lock\s*\(\s*\))");
  static const std::regex kManualRelease(
      R"(([A-Za-z_]\w*)\s*\.\s*unlock\s*\(\s*\))");

  for (const FunctionDef& fn : model.functions) {
    if (fn.class_name.empty() || fn.is_ctor_dtor || fn.lock_exempt) continue;
    const auto guarded_it = model.guarded.find(fn.class_name);
    if (guarded_it == model.guarded.end()) continue;
    const auto& guarded_fields = guarded_it->second;

    struct Held {
      std::string cap;
      int depth = 0;
      bool manual = false;
    };
    std::vector<Held> held;
    int depth = 0;
    auto is_held = [&](const std::string& cap) {
      if (fn.required_caps.count(cap)) return true;
      for (const auto& h : held) {
        if (h.cap == cap) return true;
      }
      return false;
    };

    for_each_body_line(fn, [&](std::size_t line, const std::string& seg) {
      std::vector<LockEvent> events;
      for (std::size_t i = 0; i < seg.size(); ++i) {
        if (seg[i] == '{') events.push_back({LockEvent::Open, i, "", ""});
        if (seg[i] == '}') events.push_back({LockEvent::Close, i, "", ""});
      }
      add_regex_events(seg, kScopedAcquire, LockEvent::Acquire, &events);
      add_regex_events(seg, kStdAcquire, LockEvent::Acquire, &events);
      add_regex_events(seg, kManualAcquire, LockEvent::Acquire, &events);
      add_regex_events(seg, kManualRelease, LockEvent::Release, &events);
      for (const auto& [field, cap] : guarded_fields) {
        for (std::size_t pos = seg.find(field); pos != std::string::npos;
             pos = seg.find(field, pos + 1)) {
          if (!token_at(seg, pos, field)) continue;
          // `other.field` / `ptr->field` reach a different instance;
          // only unqualified and `this->` accesses are checked.
          if (pos > 0 && seg[pos - 1] == '.') continue;
          if (pos >= 2 && seg.compare(pos - 2, 2, "->") == 0) {
            std::size_t end = pos - 2;
            while (end > 0 && (seg[end - 1] == ' ')) --end;
            std::size_t begin = end;
            while (begin > 0 && is_ident(seg[begin - 1])) --begin;
            if (seg.substr(begin, end - begin) != "this") continue;
          }
          LockEvent ev;
          ev.kind = LockEvent::Access;
          ev.col = pos;
          ev.field = field;
          ev.cap = cap;
          events.push_back(ev);
        }
      }
      std::stable_sort(events.begin(), events.end(),
                       [](const LockEvent& a, const LockEvent& b) {
                         return a.col < b.col;
                       });
      for (const auto& ev : events) {
        switch (ev.kind) {
          case LockEvent::Open:
            ++depth;
            break;
          case LockEvent::Close:
            --depth;
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const Held& h) {
                                        return h.depth > depth;
                                      }),
                       held.end());
            break;
          case LockEvent::Acquire:
            if (is_held(ev.cap)) {
              emit(findings, *fn.file, line, "lockdiscipline",
                   "double-acquire",
                   "'" + ev.cap + "' is already held in '" + fn.display +
                       "' (re-acquiring a non-recursive capability "
                       "deadlocks)");
            }
            held.push_back({ev.cap, depth, false});
            break;
          case LockEvent::Release: {
            for (std::size_t h = held.size(); h > 0; --h) {
              if (held[h - 1].cap == ev.cap) {
                held.erase(held.begin() + static_cast<std::ptrdiff_t>(h - 1));
                break;
              }
            }
            break;
          }
          case LockEvent::Access:
            if (!is_held(ev.cap)) {
              emit(findings, *fn.file, line, "lockdiscipline",
                   "guarded-access",
                   "'" + fn.class_name + "::" + ev.field +
                       "' is PFM_GUARDED_BY(" + ev.cap +
                       ") but '" + fn.display +
                       "' touches it with no lock scope holding it; "
                       "acquire the capability or annotate the function "
                       "PFM_REQUIRES(" + ev.cap + ")");
            }
            break;
        }
      }
    });
  }
}

}  // namespace pfm::lint
