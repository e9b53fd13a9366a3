#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace.hpp"

namespace perfbench {

SpanStore::SpanStore() : epoch_(Clock::now()) {}

std::int64_t SpanStore::now_ns() const { return to_ns(Clock::now()); }

std::int64_t SpanStore::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int32_t SpanStore::intern_locked(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::int32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

std::int64_t SpanStore::open(const std::string& name, std::int64_t parent,
                             std::int64_t unit) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(SpanRecord{intern_locked(name), start, -1, parent, unit});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanStore::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::int64_t SpanStore::add(const std::string& name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::int64_t unit) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(
      SpanRecord{intern_locked(name), start_ns, end_ns, parent, unit});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanStore::import(const sesp::obs::TraceSink& sink,
                       std::int64_t sink_offset_ns, std::int64_t parent,
                       std::int64_t unit) {
  struct Pending {
    std::string name;
    std::int64_t start = 0, end = 0;
    std::int32_t depth = 0;
    std::int64_t parent = -1;  // local index, -1 = the given parent
  };
  std::vector<Pending> local;
  std::vector<std::size_t> unparented;
  for (const sesp::obs::TraceEvent& ev : sink.events()) {
    if (ev.phase != sesp::obs::TraceEvent::Phase::kComplete) continue;
    Pending p{ev.name, ev.start_ns + sink_offset_ns,
              ev.start_ns + sink_offset_ns + ev.duration_ns, ev.depth, -1};
    const auto self = static_cast<std::int64_t>(local.size());
    // A span is recorded when it closes, so its children are the most
    // recent unparented spans one level deeper that lie inside it.
    while (!unparented.empty()) {
      Pending& c = local[unparented.back()];
      if (c.depth != p.depth + 1 || c.start < p.start || c.end > p.end) break;
      c.parent = self;
      unparented.pop_back();
    }
    local.push_back(std::move(p));
    unparented.push_back(local.size() - 1);
  }

  std::lock_guard<std::mutex> lk(mu_);
  const auto base = static_cast<std::int64_t>(spans_.size());
  std::int64_t lo = 0, hi = -1;
  if (parent >= 0) {
    const SpanRecord& ps = spans_[static_cast<std::size_t>(parent)];
    lo = ps.start_ns;
    hi = ps.end_ns;
  }
  for (const Pending& p : local) {
    spans_.push_back(SpanRecord{intern_locked(p.name), p.start, p.end,
                                p.parent >= 0 ? base + p.parent : parent,
                                unit});
  }
  // Parents are recorded after their children: clamp top-down by walking
  // from the back.
  for (std::int64_t i = static_cast<std::int64_t>(spans_.size()) - 1;
       i >= base; --i) {
    SpanRecord& s = spans_[static_cast<std::size_t>(i)];
    std::int64_t plo = lo, phi = hi;
    if (s.parent >= base) {
      const SpanRecord& ps = spans_[static_cast<std::size_t>(s.parent)];
      plo = ps.start_ns;
      phi = ps.end_ns;
    }
    if (phi < 0) continue;
    s.start_ns = std::clamp(s.start_ns, plo, phi);
    s.end_ns = std::clamp(s.end_ns, s.start_ns, phi);
  }
}

std::vector<SpanRecord> SpanStore::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::size_t SpanStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<std::string> SpanStore::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  return names_;
}

bool SpanStore::write_jsonl(const std::string& path,
                            const std::string& workload, std::size_t limit,
                            std::size_t* omitted) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  if (!os) return false;
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[i];
    os << "{\"workload\":\"" << workload << "\",\"id\":" << i
       << ",\"name\":\"" << names_[static_cast<std::size_t>(s.name)]
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit << "}\n";
  }
  *omitted = spans_.size() - n;
  return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(SpanStore* store, const std::string& name,
                       std::int64_t parent, std::int64_t unit)
    : store_(store) {
  if (store_ != nullptr) id_ = store_->open(name, parent, unit);
}

ScopedSpan::~ScopedSpan() {
  if (store_ != nullptr) store_->close(id_);
}

const SelfTimeRow* SelfTimeTable::row(const std::string& name) const {
  for (const SelfTimeRow& r : rows)
    if (r.name == name) return &r;
  return nullptr;
}

double SelfTimeTable::self_s(const std::string& name) const {
  const SelfTimeRow* r = row(name);
  return r ? r->self_s : 0.0;
}

double SelfTimeTable::total_s(const std::string& name) const {
  const SelfTimeRow* r = row(name);
  return r ? r->total_s : 0.0;
}

std::int64_t SelfTimeTable::count(const std::string& name) const {
  const SelfTimeRow* r = row(name);
  return r ? r->count : 0;
}

SelfTimeTable self_time_table(const SpanStore& store,
                              std::int64_t window_start_ns,
                              std::int64_t window_end_ns) {
  const std::vector<SpanRecord> all = store.spans();
  const std::vector<std::string> names = store.names();
  const std::size_t n = all.size();

  std::vector<char> in(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = all[i].end_ns >= 0 && all[i].start_ns >= window_start_ns &&
            all[i].end_ns <= window_end_ns;

  // Depth orders simultaneous edges: starts parent-first, ends child-first.
  std::vector<std::int32_t> depth(n, -1);
  const auto depth_of = [&](std::size_t i) {
    std::vector<std::size_t> chain;
    std::size_t j = i;
    while (depth[j] < 0) {
      chain.push_back(j);
      if (all[j].parent < 0) break;
      j = static_cast<std::size_t>(all[j].parent);
    }
    std::int32_t d = depth[j] >= 0 ? depth[j] + 1 : 0;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (depth[*it] < 0) depth[*it] = d;
      d = depth[*it] + 1;
    }
    return depth[i];
  };

  struct Edge {
    std::int64_t t;
    int kind;  // 0 = end, 1 = start
    std::int32_t order;
    std::size_t span;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!in[i]) continue;
    const std::int32_t d = depth_of(i);
    edges.push_back(Edge{all[i].start_ns, 1, d, i});
    edges.push_back(Edge{all[i].end_ns, 0, -d, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.order < b.order;
  });

  SelfTimeTable table;
  table.wall_s = static_cast<double>(window_end_ns - window_start_ns) * 1e-9;
  std::vector<double> self(names.size(), 0.0);
  std::vector<std::int64_t> leaves(names.size(), 0);
  std::int64_t total_leaves = 0;
  std::vector<char> active(n, 0), counted(n, 0);
  std::vector<std::int32_t> active_children(n, 0);
  double unattributed_ns = 0;
  std::int64_t t = window_start_ns;

  const auto advance = [&](std::int64_t to) {
    const double dt = static_cast<double>(to - t);
    if (dt <= 0) return;
    if (total_leaves == 0) {
      unattributed_ns += dt;
    } else {
      for (std::size_t k = 0; k < leaves.size(); ++k)
        if (leaves[k] > 0)
          self[k] += dt * static_cast<double>(leaves[k]) /
                     static_cast<double>(total_leaves);
    }
    t = to;
  };
  const auto leaf = [&](std::size_t i, int delta) {
    leaves[static_cast<std::size_t>(all[i].name)] += delta;
    total_leaves += delta;
  };

  for (const Edge& e : edges) {
    advance(e.t);
    const std::size_t s = e.span;
    const std::int64_t p = all[s].parent;
    const bool parent_active = p >= 0 && active[static_cast<std::size_t>(p)];
    if (e.kind == 1) {
      active[s] = 1;
      if (parent_active) {
        const auto pi = static_cast<std::size_t>(p);
        if (active_children[pi]++ == 0) leaf(pi, -1);
        counted[s] = 1;
      }
      leaf(s, +1);
    } else {
      if (active_children[s] == 0) leaf(s, -1);
      active[s] = 0;
      if (counted[s] && parent_active) {
        const auto pi = static_cast<std::size_t>(p);
        if (--active_children[pi] == 0) leaf(pi, +1);
      }
    }
  }
  advance(window_end_ns);
  table.unattributed_s = unattributed_ns * 1e-9;

  std::vector<double> total(names.size(), 0.0);
  std::vector<std::int64_t> count(names.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!in[i]) continue;
    const auto k = static_cast<std::size_t>(all[i].name);
    total[k] += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    ++count[k];
  }
  for (std::size_t k = 0; k < names.size(); ++k) {
    if (count[k] == 0) continue;
    table.rows.push_back(
        SelfTimeRow{names[k], self[k] * 1e-9, total[k], count[k]});
  }
  std::sort(table.rows.begin(), table.rows.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              return a.self_s > b.self_s;
            });
  return table;
}

std::string format_table(const std::string& workload,
                         const SelfTimeTable& table) {
  std::ostringstream os;
  char line[256];
  os << "self-time table (" << workload << ", traced run):\n";
  std::snprintf(line, sizeof line, "  %-34s %12s %8s %10s %12s\n", "span",
                "self_s", "share", "count", "total_s");
  os << line;
  double sum = 0;
  const auto put = [&](const std::string& name, double self_s,
                       std::int64_t count, double total_s) {
    sum += self_s;
    const double share = table.wall_s > 0 ? 100.0 * self_s / table.wall_s : 0;
    std::snprintf(line, sizeof line, "  %-34s %12.6f %7.2f%% %10lld %12.6f\n",
                  name.c_str(), self_s, share, static_cast<long long>(count),
                  total_s);
    os << line;
  };
  for (const SelfTimeRow& r : table.rows)
    put(r.name, r.self_s, r.count, r.total_s);
  put("unattributed", table.unattributed_s, 0, table.unattributed_s);
  std::snprintf(line, sizeof line, "  %-34s %12.6f   (wall %.6f s)\n",
                "sum of rows", sum, table.wall_s);
  os << line;
  return os.str();
}

}  // namespace perfbench
