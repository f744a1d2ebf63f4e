// Workload runner of the repository benchmark (driven by run.py).
//
//   perfbench <workload> --mode run|trace|drift --seed N --seconds S
//             [--spans PATH]
//
// Workloads: table1-ping4, table1-ping4-sleep-t4, lb-sym7, table2-bughunt.
// Prints one JSON object with raw samples and counts on stdout; run.py
// checks the counts against pins.json and derives the metrics.
//
//   run   — untraced searches through the apps:: scenario factories and
//           mc::Checker, repeated for --seconds seconds.
//   trace — per-layer numbers: an untraced Checker run, a telemetry=true
//           Checker run, and a sequential DFS search written here that
//           records a span around every call into a layer, in the order
//           SearchCore::expand makes them. table1-ping4-sleep-t4 gets no
//           spans (its sleep store and parallel deque are reached only
//           inside the Checker's search loops); its layers come from the
//           telemetry phases and the CheckerResult counters.
//   drift — lb_sym_scenario(5) under symmetry at 1 and 4 threads: the
//           parallel-symmetry drift self-check (reported, never gated).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/sym_reduce.h"
#include "util/hash.h"
#include "util/resource.h"
#include "util/seen_set.h"
#include "util/telemetry.h"

using namespace nicemc;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::uint64_t ns_since(Clock::time_point t0) {
  return ns_between(t0, Clock::now());
}

/// User + system CPU time of the whole process (all threads).
std::uint64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(t.tv_usec) * 1'000ULL;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so a parent's footprint never shows here.
std::uint64_t peak_rss() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return util::peak_rss_bytes();
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb != 0 ? kb * 1024 : util::peak_rss_bytes();
}

/// Bytes the allocator has handed out and not yet had back.
std::uint64_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// --- JSON output ------------------------------------------------------------

class Json {
 public:
  Json& open(char c) {
    sep();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  Json& key(const std::string& k) {
    sep();
    str(k);
    out_ += ':';
    first_ = true;
    return *this;
  }
  Json& val(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& val(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& val(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
  }
  Json& val(const std::string& v) {
    sep();
    str(v);
    return *this;
  }
  template <class T>
  Json& kv(const std::string& k, T v) {
    key(k);
    return val(v);
  }
  Json& kv(const std::string& k, const char* v) {
    key(k);
    return val(std::string(v));
  }
  Json& array(const std::string& k, const std::vector<std::uint64_t>& vs) {
    key(k).open('[');
    for (std::uint64_t v : vs) val(v);
    return close(']');
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void str(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_{true};
};

// --- Workloads --------------------------------------------------------------

/// One search configuration: a scenario factory under one strategy.
struct Cell {
  std::string name;
  std::function<apps::Scenario()> make;
  mc::Strategy strategy{mc::Strategy::kPktSeqOnly};
};

struct Workload {
  std::vector<Cell> cells;
  mc::CheckerOptions options;
  /// Exhaustive searches are timed one search at a time; the bug hunt
  /// one pass over its cell matrix at a time.
  bool exhaustive{true};
  /// The traced run searches this workload with traced_search().
  bool spans{true};
};

std::vector<std::pair<std::string, std::function<apps::Scenario()>>>
bug_cases() {
  using apps::LbScenarioOptions;
  using apps::TeScenarioOptions;
  // The eleven Table 2 cases as bench/bench_table2.cpp builds them, plus
  // the three violations that only a fault transition can reach.
  return {
      {"I", [] { return apps::pyswitch_bug1(); }},
      {"II", [] { return apps::pyswitch_bug2(); }},
      {"III", [] { return apps::pyswitch_bug3(); }},
      {"IV",
       [] {
         LbScenarioOptions o;
         o.fix_install_before_delete = true;
         return apps::lb_scenario(o);
       }},
      {"V",
       [] {
         LbScenarioOptions o;
         o.fix_release_packet = true;
         return apps::lb_scenario(o);
       }},
      {"VI",
       [] {
         LbScenarioOptions o;
         o.fix_release_packet = true;
         o.fix_install_before_delete = true;
         o.client_sends_arp = true;
         return apps::lb_scenario(o);
       }},
      {"VII",
       [] {
         LbScenarioOptions o;
         o.fix_release_packet = true;
         o.fix_install_before_delete = true;
         o.client_can_dup_syn = true;
         o.data_segments = 2;
         o.check_flow_affinity = true;
         return apps::lb_scenario(o);
       }},
      {"VIII", [] { return apps::te_scenario({}); }},
      {"IX",
       [] {
         TeScenarioOptions o;
         o.fix_release_packet = true;
         return apps::te_scenario(o);
       }},
      {"X",
       [] {
         TeScenarioOptions o;
         o.fix_release_packet = true;
         o.fix_handle_intermediate = true;
         o.stats_rounds = 1;
         o.check_routing_table = true;
         return apps::te_scenario(o);
       }},
      {"XI",
       [] {
         TeScenarioOptions o;
         o.fix_release_packet = true;
         o.fix_handle_intermediate = true;
         o.stats_rounds = 2;
         return apps::te_scenario(o);
       }},
      {"pyswitch-linkfail", [] { return apps::pyswitch_linkfail(false); }},
      {"lb-linkfail", [] { return apps::lb_linkfail(false); }},
      {"te-linkfail", [] { return apps::te_linkfail(false); }},
  };
}

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  // A limit hit is a failed search; these bounds only keep a broken
  // engine from overrunning the run.
  w.options.max_transitions = 20'000'000;
  w.options.time_limit_seconds = 150.0;
  if (name == "table1-ping4" || name == "table1-ping4-sleep-t4") {
    w.cells.push_back({"ping4", [] { return apps::pyswitch_ping_chain(4); },
                       mc::Strategy::kPktSeqOnly});
    if (name == "table1-ping4-sleep-t4") {
      w.options.reduction = mc::Reduction::kSleep;
      w.options.threads = 4;
      w.spans = false;
    }
    return w;
  }
  if (name == "lb-sym7") {
    w.cells.push_back({"lb-sym7", [] { return apps::lb_sym_scenario(7); },
                       mc::Strategy::kPktSeqOnly});
    w.options.symmetry = true;
    return w;
  }
  if (name == "table2-bughunt") {
    w.exhaustive = false;
    w.options.max_transitions = 5'000'000;  // as bench_table2
    w.options.time_limit_seconds = 60.0;
    const std::array<mc::Strategy, 4> strategies = {
        mc::Strategy::kPktSeqOnly, mc::Strategy::kNoDelay,
        mc::Strategy::kFlowIr, mc::Strategy::kUnusual};
    for (auto& [bug, make] : bug_cases()) {
      for (mc::Strategy st : strategies) {
        w.cells.push_back({bug + "/" + mc::strategy_name(st), make, st});
      }
    }
    return w;
  }
  return std::nullopt;
}

// --- Untraced searches ------------------------------------------------------

enum class Kind : std::uint8_t { kUntraced, kTelemetry, kTraced };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kUntraced: return "untraced";
    case Kind::kTelemetry: return "telemetry";
    case Kind::kTraced: return "traced";
  }
  return "?";
}

/// One search: its counts (gated by run.py) and its timings.
struct Record {
  std::size_t cell{0};
  Kind kind{Kind::kUntraced};
  std::uint64_t transitions{0};
  std::uint64_t unique{0};
  std::uint64_t violations{0};
  bool exhausted{false};
  std::string limit{"none"};
  std::string error;
  std::uint64_t build_ns{0};      // scenario factory
  std::uint64_t construct_ns{0};  // Checker construction
  std::uint64_t run_ns{0};        // run() to its verdict
  std::uint64_t cpu_ns{0};        // process CPU during run()
};

/// Search outcomes grouped for the gate, plus per-search samples: the
/// time from scenario build to verdict, and the set-up part of it. Grouping
/// keeps the process's memory independent of how many searches fit.
class Tally {
 public:
  void add(const Record& r) {
    ++groups_[std::make_tuple(r.cell, r.kind, r.transitions, r.unique,
                              r.violations, r.exhausted, r.limit, r.error)];
    ttfv_ns_.push_back(r.build_ns + r.construct_ns + r.run_ns);
    setup_ns_.push_back(r.build_ns + r.construct_ns);
  }

  void write(Json& j) const {
    j.array("ttfv_ns", ttfv_ns_).array("search_setup_ns", setup_ns_);
    j.key("outcomes").open('[');
    for (const auto& [k, count] : groups_) {
      j.open('{')
          .kv("cell", static_cast<std::uint64_t>(std::get<0>(k)))
          .kv("kind", kind_name(std::get<1>(k)))
          .kv("transitions", std::get<2>(k))
          .kv("unique", std::get<3>(k))
          .kv("violations", std::get<4>(k))
          .kv("exhausted", std::get<5>(k))
          .kv("limit", std::get<6>(k))
          .kv("error", std::get<7>(k))
          .kv("count", count)
          .close('}');
    }
    j.close(']');
  }

 private:
  std::map<std::tuple<std::size_t, Kind, std::uint64_t, std::uint64_t,
                      std::uint64_t, bool, std::string, std::string>,
           std::uint64_t>
      groups_;
  std::vector<std::uint64_t> ttfv_ns_;
  std::vector<std::uint64_t> setup_ns_;
};

/// The cell's scenario with its strategy applied, and the options to
/// check it under.
std::pair<apps::Scenario, mc::CheckerOptions> prepare(const Workload& w,
                                                      std::size_t cell) {
  std::pair<apps::Scenario, mc::CheckerOptions> p{w.cells[cell].make(),
                                                  w.options};
  apps::set_strategy(p.first, p.second, w.cells[cell].strategy);
  return p;
}

/// Build the cell's scenario and options, then construct and run the
/// Checker. `after` (optional) sees the full CheckerResult.
Record run_checker(const Workload& w, std::size_t cell, Kind kind,
                   const std::function<void(const mc::CheckerResult&)>&
                       after = nullptr) {
  Record rec;
  rec.cell = cell;
  rec.kind = kind;
  try {
    const auto t0 = Clock::now();
    auto [s, opt] = prepare(w, cell);
    opt.telemetry = kind == Kind::kTelemetry;
    const auto t1 = Clock::now();
    mc::Checker checker(s.config, opt, s.properties);
    const auto t2 = Clock::now();
    const std::uint64_t cpu0 = cpu_ns();
    const mc::CheckerResult r = checker.run();
    rec.run_ns = ns_since(t2);
    rec.cpu_ns = cpu_ns() - cpu0;
    rec.build_ns = ns_between(t0, t1);
    rec.construct_ns = ns_between(t1, t2);
    rec.transitions = r.transitions;
    rec.unique = r.unique_states;
    rec.violations = r.violations.size();
    rec.exhausted = r.exhausted;
    rec.limit = mc::limit_reason_name(r.hit_limit);
    if (after) after(r);
  } catch (const std::exception& e) {
    rec.error = e.what()[0] != '\0' ? e.what() : "exception";
  }
  return rec;
}

/// Scenario build and Checker construction alone, `reps` times.
void setup_reps(const Workload& w, int reps, std::vector<std::uint64_t>& build,
                std::vector<std::uint64_t>& construct) {
  for (int i = 0; i < reps; ++i) {
    const std::size_t cell = static_cast<std::size_t>(i) % w.cells.size();
    const auto t0 = Clock::now();
    const auto [s, opt] = prepare(w, cell);
    const auto t1 = Clock::now();
    {
      const mc::Checker checker(s.config, opt, s.properties);
      build.push_back(ns_between(t0, t1));
      construct.push_back(ns_since(t1));
    }
  }
}

/// The seeded cell order of one bug-hunt pass.
std::vector<std::size_t> shuffled(std::size_t n, util::SplitMix64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

// --- Spans ------------------------------------------------------------------

enum Layer : std::uint8_t {
  kMakeInitial,   // Executor::make_initial
  kClone,         // SystemState::clone
  kApply,         // Executor::apply (monitors' on_events included)
  kStateHash,     // SystemState::hash
  kCanonicalKey,  // SymContext::canonical_key
  kInsert,        // ShardedSeenSet::insert
  kEnabled,       // Executor::enabled (discovery included)
  kStrategy,      // apply_strategy
  kQuiescence,    // Executor::at_quiescence
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "make_initial", "clone",   "apply",    "state_hash", "canonical_key",
    "insert",       "enabled", "strategy", "quiescence"};

/// Two-level span record: one root per search, and under it one leaf per
/// call into a layer. Spans stay in memory until write(); a leaf has no
/// children, so its self time is its duration, and a root's self time is
/// its duration minus its leaves' (the search loop's own work, unattributed).
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  struct Root {
    std::string name;
    std::uint64_t start_ns{0};
    std::uint64_t end_ns{0};
  };
  struct Leaf {
    std::uint64_t start_ns;
    std::uint32_t dur_ns;
    std::uint32_t layer_root;  // layer in the low 8 bits, root index above
  };
  static_assert(sizeof(Leaf) == 16);

  std::uint32_t open_root(std::string name) {
    roots_.push_back(Root{std::move(name), now(), 0});
    return static_cast<std::uint32_t>(roots_.size() - 1);
  }
  void close_root(std::uint32_t root) { roots_[root].end_ns = now(); }

  /// Call f() inside a leaf span of `layer` under `root`.
  template <class F>
  decltype(auto) call(Layer layer, std::uint32_t root, F&& f) {
    const Closer c{*this, layer, root, now()};
    return f();
  }

  /// Per-layer totals over every leaf, and the roots' total and self time.
  struct Totals {
    std::array<std::uint64_t, kLayerCount> count{};
    std::array<std::uint64_t, kLayerCount> self_ns{};
    std::uint64_t root_ns{0};
    std::uint64_t root_self_ns{0};
  };
  [[nodiscard]] Totals totals() const {
    Totals t;
    for (const Root& r : roots_) t.root_ns += r.end_ns - r.start_ns;
    std::uint64_t leaves = 0;
    for (const Leaf& l : leaves_) {
      const std::size_t layer = l.layer_root & 0xff;
      ++t.count[layer];
      t.self_ns[layer] += l.dur_ns;
      leaves += l.dur_ns;
    }
    t.root_self_ns = t.root_ns - std::min(t.root_ns, leaves);
    return t;
  }

  [[nodiscard]] std::uint64_t span_count() const {
    return roots_.size() + leaves_.size();
  }

  /// Write every span (times in ns since the tracer started), host byte
  /// order: "NICESPN1"; u32 layer count, then per layer u32 length +
  /// name; u64 root count, then per root u32 length + name, u64 start,
  /// u64 end; u64 leaf count, then the Leaf records (16 bytes each).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const auto put = [f](const void* p, std::size_t n) {
      std::fwrite(p, 1, n, f);
    };
    const auto put_str = [&put](const std::string& s) {
      const auto n = static_cast<std::uint32_t>(s.size());
      put(&n, sizeof(n));
      put(s.data(), s.size());
    };
    put("NICESPN1", 8);
    const auto layers = static_cast<std::uint32_t>(kLayerCount);
    put(&layers, sizeof(layers));
    for (const char* name : kLayerNames) put_str(name);
    const std::uint64_t nroots = roots_.size();
    put(&nroots, sizeof(nroots));
    for (const Root& r : roots_) {
      put_str(r.name);
      put(&r.start_ns, sizeof(r.start_ns));
      put(&r.end_ns, sizeof(r.end_ns));
    }
    const std::uint64_t nleaves = leaves_.size();
    put(&nleaves, sizeof(nleaves));
    put(leaves_.data(), leaves_.size() * sizeof(Leaf));
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Closer {
    Tracer& t;
    Layer layer;
    std::uint32_t root;
    std::uint64_t start;
    ~Closer() {
      const std::uint64_t end = t.now();
      t.leaves_.push_back(Leaf{start, static_cast<std::uint32_t>(std::min<
                                          std::uint64_t>(end - start,
                                                         0xffffffffULL)),
                               static_cast<std::uint32_t>(layer) |
                                   (root << 8)});
    }
  };

  [[nodiscard]] std::uint64_t now() const { return ns_since(t0_); }

  Clock::time_point t0_;
  std::vector<Root> roots_;
  std::vector<Leaf> leaves_;
};

/// What traced_search() saw beyond the counts.
struct TraceStats {
  std::uint64_t enabled_out{0};  // transitions Executor::enabled returned
  std::uint64_t kept{0};         // ... and apply_strategy kept
  std::uint64_t seen_heap_bytes{0};  // allocator bytes the seen-set held
  std::uint64_t seen_states{0};
};

/// Sequential DFS over the cell's scenario that calls each layer's public
/// entry point in SearchCore::expand's order — clone, apply, hash (or
/// canonical_key under symmetry), seen-set insert, enabled + strategy,
/// at_quiescence — inside a span, with the Checker's single-thread
/// defaults (kHash store, one shard, discovery memo on). Reproduces
/// SearchCore::run_sequential's counts for reduction kNone.
Record traced_search(const Workload& w, std::size_t cell, Tracer& tr,
                     TraceStats& st) {
  Record rec;
  rec.cell = cell;
  rec.kind = Kind::kTraced;
  try {
    const auto t0 = Clock::now();
    const auto prepared = prepare(w, cell);
    const apps::Scenario& s = prepared.first;
    const mc::CheckerOptions& opt = prepared.second;
    const mc::SystemConfig& cfg = s.config;
    const auto t1 = Clock::now();
    mc::Executor exec(cfg, s.properties);
    std::optional<mc::DiscoveryMemo> memo;
    if (opt.memo) {
      memo.emplace(nullptr, 1,
                   opt.memo_budget_bytes - opt.memo_budget_bytes / 2);
      exec.set_discovery_memo(&*memo);
    }
    std::optional<mc::SymContext> sym;
    if (opt.symmetry) sym.emplace(cfg);
    std::optional<util::ShardedSeenSet> seen;
    seen.emplace(util::ShardedSeenSet::Mode::kHash, 1);
    mc::DiscoveryCache cache;
    const auto t2 = Clock::now();
    rec.build_ns = ns_between(t0, t1);
    rec.construct_ns = ns_between(t1, t2);

    const std::uint32_t root = tr.open_root(w.cells[cell].name);
    const auto remember = [&](const mc::SystemState& state) {
      const util::Hash128 h =
          sym ? tr.call(kCanonicalKey, root,
                        [&] { return sym->canonical_key(state, nullptr).hash; })
              : tr.call(kStateHash, root, [&] {
                  return state.hash(cfg.canonical_flowtables);
                });
      return tr.call(kInsert, root, [&] { return seen->insert(h); });
    };
    const auto successors = [&](const mc::SystemState& state) {
      std::vector<mc::Transition> en =
          tr.call(kEnabled, root, [&] { return exec.enabled(state, cache); });
      st.enabled_out += en.size();
      std::vector<mc::Transition> ts = tr.call(kStrategy, root, [&] {
        return mc::apply_strategy(opt.strategy, cfg, state, std::move(en));
      });
      st.kept += ts.size();
      return ts;
    };
    const auto quiesce = [&](mc::SystemState& state) {
      std::vector<mc::Violation> vs;
      tr.call(kQuiescence, root, [&] { exec.at_quiescence(state, vs); });
      return vs.size();
    };

    const std::uint64_t cpu0 = cpu_ns();
    const auto start = Clock::now();
    auto initial = std::make_shared<const mc::SystemState>(
        tr.call(kMakeInitial, root, [&] { return exec.make_initial(); }));
    remember(*initial);
    rec.unique = 1;
    std::vector<mc::SearchNode> stack;
    std::vector<mc::Transition> roots = successors(*initial);
    if (roots.empty()) {
      mc::SystemState tmp = initial->clone();
      rec.violations += quiesce(tmp);
    }
    for (mc::Transition& t : roots) {
      stack.push_back(
          mc::SearchNode{initial, std::move(t), nullptr, 1, {}, {}, {}, false});
    }
    const bool stop = opt.stop_at_first_violation;
    while (!stack.empty()) {
      if (rec.transitions >= opt.max_transitions) {
        rec.limit = "transitions";
        break;
      }
      if (stop && rec.violations > 0) break;
      const mc::SearchNode node = std::move(stack.back());
      stack.pop_back();
      ++rec.transitions;
      mc::SystemState next =
          tr.call(kClone, root, [&] { return node.state->clone(); });
      std::vector<mc::Violation> vs;
      tr.call(kApply, root, [&] { exec.apply(next, node.transition, vs); });
      auto path = std::make_shared<const mc::PathNode>(
          mc::PathNode{node.path, node.transition});
      if (!vs.empty()) {
        rec.violations += vs.size();
        if (stop) break;
        continue;
      }
      if (!remember(next)) continue;
      ++rec.unique;
      if (node.depth >= opt.max_depth) continue;
      std::vector<mc::Transition> ts = successors(next);
      if (ts.empty()) {
        const std::size_t q = quiesce(next);
        rec.violations += q;
        if (q > 0 && stop) break;
        continue;
      }
      auto next_sp = std::make_shared<const mc::SystemState>(std::move(next));
      for (mc::Transition& t : ts) {
        stack.push_back(mc::SearchNode{next_sp, std::move(t), path,
                                       node.depth + 1, {}, {}, {}, false});
      }
    }
    rec.exhausted = stack.empty() && !(stop && rec.violations > 0);
    tr.close_root(root);
    rec.run_ns = ns_since(start);
    rec.cpu_ns = cpu_ns() - cpu0;

    stack.clear();
    stack.shrink_to_fit();
    st.seen_states += seen->size();
    const std::uint64_t with_seen = heap_bytes();
    seen.reset();
    st.seen_heap_bytes += with_seen - std::min(with_seen, heap_bytes());
  } catch (const std::exception& e) {
    rec.error = e.what()[0] != '\0' ? e.what() : "exception";
  }
  return rec;
}

// --- Modes ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string mode{"run"};
  std::uint64_t seed{1};
  double seconds{10.0};
  std::string spans;
};

/// Counters summed over the telemetry=true Checker runs of a traced run.
struct CheckerTotals {
  std::uint64_t runs{0};
  std::uint64_t transitions{0};
  std::uint64_t unique{0};
  std::uint64_t revisits{0};
  std::uint64_t store_bytes{0};
  std::uint64_t collapse_bytes{0};
  mc::CheckerResult::MemoStats memo;
  mc::DiscoveryStats discovery;
  std::uint64_t telemetry_workers{0};
  std::uint64_t telemetry_wall_ns{0};
  std::array<std::uint64_t, util::kPhaseCount> phase_count{};
  std::array<std::uint64_t, util::kPhaseCount> phase_ns{};

  void add(const mc::CheckerResult& r) {
    ++runs;
    transitions += r.transitions;
    unique += r.unique_states;
    revisits += r.revisits;
    store_bytes += r.store_bytes;
    collapse_bytes += r.collapse.interned_bytes;
    memo.footprint_hits += r.memo.footprint_hits;
    memo.footprint_misses += r.memo.footprint_misses;
    memo.discover_hits += r.memo.discover_hits;
    memo.discover_misses += r.memo.discover_misses;
    memo.bytes = std::max(memo.bytes, r.memo.bytes);
    mc::add_discovery_stats(discovery, r.discovery);
    telemetry_workers = std::max(telemetry_workers, r.telemetry.workers);
    telemetry_wall_ns += r.telemetry.wall_ns;
    for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
      phase_count[p] += r.telemetry.phases[p].count;
      phase_ns[p] += r.telemetry.phases[p].total_ns;
    }
  }

  void write(Json& j) const {
    j.key("checker")
        .open('{')
        .kv("runs", runs)
        .kv("transitions", transitions)
        .kv("unique", unique)
        .kv("revisits", revisits)
        .kv("store_bytes", store_bytes)
        .kv("collapse_bytes", collapse_bytes)
        .kv("footprint_hits", memo.footprint_hits)
        .kv("footprint_misses", memo.footprint_misses)
        .kv("discover_hits", memo.discover_hits)
        .kv("discover_misses", memo.discover_misses)
        .kv("memo_bytes", memo.bytes)
        .kv("solver_queries", discovery.solver_queries)
        .kv("handler_runs", discovery.handler_runs)
        .kv("telemetry_workers", telemetry_workers)
        .kv("telemetry_wall_ns", telemetry_wall_ns);
    j.key("phases").open('{');
    for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
      j.key(util::phase_name(static_cast<util::Phase>(p)))
          .open('{')
          .kv("count", phase_count[p])
          .kv("ns", phase_ns[p])
          .close('}');
    }
    j.close('}').close('}');
  }
};

constexpr int kSetupReps = 2000;
constexpr std::size_t kTracedPasses = 20;
// Exhaustive workloads time their set-up in batches spread over the run
// (before every search and after the last), so the set-up median samples
// the same stretch of time as the searches, not only the process start.
constexpr int kSetupBatch = 500;

/// Untraced searches for `seconds`: each exhaustive search, or each pass
/// over the bug-hunt matrix in a seeded order, is one timed sample.
void mode_run(const Workload& w, const Args& a, Json& j) {
  Tally tally;
  std::vector<std::uint64_t> sample_ns, sample_cpu_ns, build, construct;
  util::SplitMix64 rng(a.seed);
  const auto t0 = Clock::now();
  const auto budget_ns = static_cast<std::uint64_t>(a.seconds * 1e9);
  std::uint64_t last = 0;
  do {
    if (w.exhaustive) setup_reps(w, kSetupBatch, build, construct);
    const auto s0 = Clock::now();
    const std::uint64_t cpu0 = cpu_ns();
    std::uint64_t verdict_ns = 0;
    std::uint64_t verdict_cpu_ns = 0;
    const std::vector<std::size_t> order =
        w.exhaustive ? std::vector<std::size_t>{0}
                     : shuffled(w.cells.size(), rng);
    for (std::size_t cell : order) {
      const Record r = run_checker(w, cell, Kind::kUntraced);
      tally.add(r);
      verdict_ns += r.run_ns;
      verdict_cpu_ns += r.cpu_ns;
    }
    last = ns_since(s0);
    // The bug hunt's verdict is its whole pass, set-up included.
    sample_ns.push_back(w.exhaustive ? verdict_ns : last);
    sample_cpu_ns.push_back(w.exhaustive ? verdict_cpu_ns : cpu_ns() - cpu0);
  } while (ns_since(t0) + last <= budget_ns);
  if (w.exhaustive) setup_reps(w, kSetupBatch, build, construct);
  const std::uint64_t peak = peak_rss();

  j.array("sample_ns", sample_ns).array("sample_cpu_ns", sample_cpu_ns);
  j.array("build_ns", build).array("construct_ns", construct);
  j.kv("peak_rss_bytes", peak);
  tally.write(j);
}

/// The traced run: per-layer numbers for one workload.
void mode_trace(const Workload& w, const Args& a, Json& j) {
  Tally tally;
  std::vector<std::uint64_t> untraced_ns, traced_ns, build, construct;
  CheckerTotals totals;
  std::uint64_t telemetry_cpu_ns = 0;
  std::uint64_t telemetry_run_ns = 0;
  std::uint64_t largest_store = 0;
  const auto note_store = [&largest_store](const mc::CheckerResult& r) {
    largest_store = std::max(largest_store, r.store_bytes + r.memo.bytes +
                                                r.collapse.interned_bytes);
  };
  // Each returns the search's time from scenario build to verdict.
  const auto untraced = [&](std::size_t cell) {
    const Record r = run_checker(w, cell, Kind::kUntraced, note_store);
    tally.add(r);
    return r.build_ns + r.construct_ns + r.run_ns;
  };
  const auto telemetry = [&](std::size_t cell) {
    const Record r = run_checker(
        w, cell, Kind::kTelemetry,
        [&totals](const mc::CheckerResult& cr) { totals.add(cr); });
    tally.add(r);
    telemetry_run_ns += r.run_ns;
    telemetry_cpu_ns += r.cpu_ns;
  };
  Tracer tr;
  TraceStats st;
  const auto traced = [&](std::size_t cell) {
    const Record r = traced_search(w, cell, tr, st);
    tally.add(r);
    return r.build_ns + r.construct_ns + r.run_ns;
  };
  util::SplitMix64 rng(a.seed);
  std::uint64_t peak_after_untraced = 0;

  setup_reps(w, kSetupReps, build, construct);
  if (w.exhaustive) {
    untraced_ns.push_back(untraced(0));
    peak_after_untraced = peak_rss();
    telemetry(0);
    if (w.spans) traced_ns.push_back(traced(0));
  } else {
    // Untraced and traced passes alternate over the same seeded order
    // until the budget or kTracedPasses is spent (the spans of every
    // traced pass stay in memory); one telemetry pass closes the run.
    const auto t0 = Clock::now();
    const auto budget_ns = static_cast<std::uint64_t>(a.seconds * 1e9);
    std::uint64_t last = 0;
    do {
      const auto p0 = Clock::now();
      const std::vector<std::size_t> order = shuffled(w.cells.size(), rng);
      std::uint64_t u = 0;
      std::uint64_t t = 0;
      for (std::size_t cell : order) u += untraced(cell);
      if (peak_after_untraced == 0) peak_after_untraced = peak_rss();
      for (std::size_t cell : order) t += traced(cell);
      untraced_ns.push_back(u);
      traced_ns.push_back(t);
      last = ns_since(p0);
    } while (traced_ns.size() < kTracedPasses &&
             ns_since(t0) + 2 * last <= budget_ns);
    for (std::size_t cell = 0; cell < w.cells.size(); ++cell) telemetry(cell);
  }

  j.array("build_ns", build).array("construct_ns", construct);
  j.array("untraced_ns", untraced_ns).array("traced_ns", traced_ns);
  j.kv("peak_rss_bytes", peak_after_untraced);
  j.kv("largest_store_bytes", largest_store);
  j.kv("telemetry_run_ns", telemetry_run_ns);
  j.kv("telemetry_cpu_ns", telemetry_cpu_ns);
  totals.write(j);

  const Tracer::Totals tt = tr.totals();
  j.key("spans")
      .open('{')
      .kv("count", tr.span_count())
      .kv("root_ns", tt.root_ns)
      .kv("root_self_ns", tt.root_self_ns);
  j.key("layers").open('{');
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    j.key(kLayerNames[l])
        .open('{')
        .kv("count", tt.count[l])
        .kv("self_ns", tt.self_ns[l])
        .close('}');
  }
  j.close('}');
  j.kv("enabled_out", st.enabled_out)
      .kv("kept", st.kept)
      .kv("seen_heap_bytes", st.seen_heap_bytes)
      .kv("seen_states", st.seen_states);
  const bool wrote = !a.spans.empty() && tr.span_count() > 0 &&
                     tr.write(a.spans);
  j.kv("spans_written", wrote);
  j.close('}');
  tally.write(j);
}

/// lb_sym_scenario(5) under symmetry at 1 and 4 threads.
void mode_drift(Json& j) {
  Workload w;
  w.cells.push_back({"lb-sym5", [] { return apps::lb_sym_scenario(5); },
                     mc::Strategy::kPktSeqOnly});
  w.options.symmetry = true;
  w.options.time_limit_seconds = 60.0;
  j.key("drift").open('[');
  for (unsigned threads : {1U, 4U}) {
    w.options.threads = threads;
    const Record r = run_checker(w, 0, Kind::kUntraced);
    j.open('{')
        .kv("scenario", "lb_sym_scenario(5)")
        .kv("threads", static_cast<std::uint64_t>(threads))
        .kv("unique", r.unique)
        .kv("transitions", r.transitions)
        .kv("exhausted", r.exhausted)
        .kv("error", r.error)
        .close('}');
  }
  j.close(']');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <workload> --mode run|trace|drift "
               "--seed N --seconds S [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args a;
  a.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--mode") {
      a.mode = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      return usage();
    }
  }
  Json j;
  j.open('{').kv("workload", a.workload).kv("mode", a.mode);
  if (a.mode == "drift") {
    mode_drift(j);
  } else {
    const std::optional<Workload> w = find_workload(a.workload);
    if (!w) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   a.workload.c_str());
      return 2;
    }
    j.key("cells").open('[');
    for (const Cell& c : w->cells) j.val(c.name);
    j.close(']');
    if (a.mode == "run") {
      mode_run(*w, a, j);
    } else if (a.mode == "trace") {
      mode_trace(*w, a, j);
    } else {
      return usage();
    }
  }
  j.close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}
