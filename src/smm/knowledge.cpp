#include "smm/knowledge.hpp"

#include <algorithm>
#include <array>
#include <sstream>

namespace sesp {

PortInfo join(const PortInfo& a, const PortInfo& b) {
  return PortInfo{std::max(a.steps, b.steps), std::max(a.session, b.session),
                  a.done || b.done};
}

const Knowledge::Entry* Knowledge::find(ProcessId p) const noexcept {
  // Entries are few (ports + relays); a contiguous scan beats binary search
  // at these sizes and the sorted order lets it stop early.
  for (const Entry& e : facts_) {
    if (e.process == p) return &e;
    if (e.process > p) break;
  }
  return nullptr;
}

PortInfo Knowledge::about(ProcessId p) const {
  const Entry* e = find(p);
  return e == nullptr ? PortInfo{} : e->info;
}

void Knowledge::record(ProcessId p, const PortInfo& info) {
  std::size_t i = 0;
  while (i < facts_.size() && facts_[i].process < p) ++i;
  if (i < facts_.size() && facts_[i].process == p) {
    const PortInfo joined = join(facts_[i].info, info);
    if (joined == facts_[i].info) return;  // fact unchanged; cache holds
    facts_[i].info = joined;
    touch();
    return;
  }
  facts_.insert(facts_.begin() + static_cast<std::ptrdiff_t>(i),
                Entry{p, info});
  touch();
}

void Knowledge::merge(const Knowledge& other) {
  if (other.facts_.empty()) return;
  if (facts_.empty()) {
    facts_ = other.facts_;
    adopt_stamp(other);  // content adopted wholesale: share the stamp
    return;
  }
  // Two-pointer join of sorted runs, in place: common ids are joined
  // pointwise; ids only in `other` are batched into one tail merge. Once
  // the join saturates (livelocked gossip replays the same facts), no
  // entry changes and the digest cache survives the merge.
  std::size_t i = 0;
  bool changed = false;
  std::vector<Entry> missing;
  for (const Entry& e : other.facts_) {
    while (i < facts_.size() && facts_[i].process < e.process) ++i;
    if (i < facts_.size() && facts_[i].process == e.process) {
      const PortInfo joined = join(facts_[i].info, e.info);
      if (joined != facts_[i].info) {
        facts_[i].info = joined;
        changed = true;
      }
    } else {
      missing.push_back(e);
    }
  }
  if (changed) touch();
  if (missing.empty()) return;
  touch();
  facts_.insert(facts_.end(), missing.begin(), missing.end());
  std::inplace_merge(facts_.begin(),
                     facts_.end() - static_cast<std::ptrdiff_t>(missing.size()),
                     facts_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.process < b.process;
                     });
}

void Knowledge::exchange(Knowledge& a, Knowledge& b) {
  const bool same_ids =
      !a.facts_.empty() &&
      std::equal(a.facts_.begin(), a.facts_.end(), b.facts_.begin(),
                 b.facts_.end(), [](const Entry& x, const Entry& y) {
                   return x.process == y.process;
                 });
  if (!same_ids) {
    a.merge(b);
    b.merge(a);
    return;
  }
  bool a_changed = false;
  bool b_changed = false;
  for (std::size_t i = 0; i < a.facts_.size(); ++i) {
    PortInfo& x = a.facts_[i].info;
    PortInfo& y = b.facts_[i].info;
    const PortInfo joined = join(x, y);
    if (joined != x) {
      x = joined;
      a_changed = true;
    }
    if (joined != y) {
      y = joined;
      b_changed = true;
    }
  }
  // Both now hold the join. A side that did not change already held it, so
  // the other takes its stamp and digest, as merge() does when it adopts a
  // whole value; when both changed they share one fresh stamp.
  if (a_changed && b_changed) {
    a.touch();
    b.adopt_stamp(a);
  } else if (a_changed) {
    a.adopt_stamp(b);
  } else if (b_changed) {
    b.adopt_stamp(a);
  }
}

bool Knowledge::all_have_steps(std::int32_t n, std::int64_t threshold,
                               ProcessId except) const {
  std::size_t i = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == except) continue;
    while (i < facts_.size() && facts_[i].process < p) ++i;
    if (i >= facts_.size() || facts_[i].process != p ||
        facts_[i].info.steps < threshold)
      return false;
  }
  return true;
}

bool Knowledge::all_have_session(std::int32_t n, std::int64_t threshold,
                                 ProcessId except) const {
  std::size_t i = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == except) continue;
    while (i < facts_.size() && facts_[i].process < p) ++i;
    if (i >= facts_.size() || facts_[i].process != p ||
        facts_[i].info.session < threshold)
      return false;
  }
  return true;
}

bool Knowledge::all_done(std::int32_t n, ProcessId except) const {
  std::size_t i = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == except) continue;
    while (i < facts_.size() && facts_[i].process < p) ++i;
    if (i >= facts_.size() || facts_[i].process != p || !facts_[i].info.done)
      return false;
  }
  return true;
}

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// kFnvPrimePow[k] = kFnvPrime^k mod 2^64.
constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k)
    pow[k] = pow[k - 1] * kFnvPrime;
  return pow;
}();

}  // namespace

std::uint64_t Knowledge::digest() const {
  if (digest_valid_) return cached_digest_;
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  // FNV-1a over the 8 little-endian bytes of v. A zero byte only multiplies
  // (h ^ 0 == h), so the run of zero high bytes — most of them, for small
  // ids and counters — folds into one multiply by kFnvPrime^run, and so does
  // the multiply of the top nonzero byte before it: a field below 0x100
  // costs one xor and one multiply. (v == 0 takes the same path: its one
  // "top byte" is zero and the multiply is kFnvPrime^8.)
  auto mix = [&h](std::uint64_t v) {
    std::size_t bytes = 1;
    for (; v > 0xff; v >>= 8, ++bytes) {
      h ^= v & 0xff;
      h *= kFnvPrime;
    }
    h ^= v;
    h *= kFnvPrimePow[9 - bytes];
  };
  for (const Entry& e : facts_) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.process)));
    mix(static_cast<std::uint64_t>(e.info.steps));
    mix(static_cast<std::uint64_t>(e.info.session));
    mix(e.info.done ? 1 : 0);
  }
  cached_digest_ = h;
  digest_valid_ = true;
  return h;
}

std::string Knowledge::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const Entry& e : facts_) {
    if (!first) os << ", ";
    first = false;
    os << "p" << e.process << ":(steps=" << e.info.steps
       << ",sess=" << e.info.session << (e.info.done ? ",done)" : ")");
  }
  os << "}";
  return os.str();
}

}  // namespace sesp
