#include "core/plan_cache.hpp"

#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>

namespace tpio::coll {

namespace {

std::atomic<std::uint64_t> g_lookups{0};
std::atomic<std::uint64_t> g_hits{0};

struct CacheState {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const Plan>> plans;
  std::unordered_map<std::string, std::shared_ptr<const PlanSkeleton>>
      skeletons;
  // Bound the footprint: past this many distinct geometries the cache is
  // simply cleared (in-use plans stay alive through their shared_ptrs).
  static constexpr std::size_t kMaxEntries = 256;
};

CacheState& state() {
  static CacheState* s = new CacheState;
  return *s;
}

void append_u64(std::string& key, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  key.append(buf, sizeof v);
}

/// Shared key header: every non-view input the Plan/PlanSkeleton
/// constructors read, serialized verbatim.
void append_header(std::string& key, const net::Topology& topo,
                   std::uint64_t stripe, const Options& opt) {
  append_u64(key, static_cast<std::uint64_t>(topo.nodes));
  append_u64(key, static_cast<std::uint64_t>(topo.procs_per_node));
  append_u64(key, static_cast<std::uint64_t>(topo.rank_offset));
  append_u64(key, static_cast<std::uint64_t>(topo.nprocs()));
  append_u64(key, stripe);
  append_u64(key, opt.cb_size);
  append_u64(key, opt.overlap == OverlapMode::None ? 0 : 1);  // split geometry
  append_u64(key, static_cast<std::uint64_t>(opt.num_aggregators));
  append_u64(key, static_cast<std::uint64_t>(lanes_per_node(opt, topo)));
  append_u64(key, (opt.stripe_align ? 1u : 0u) |
                      (opt.leader_policy == LeaderPolicy::Spread ? 4u : 0u) |
                      (opt.leader_policy == LeaderPolicy::Superset ? 8u : 0u));
}

/// Exact key material: every input the Plan constructor reads, serialized
/// verbatim (binary string; collisions require byte-identical inputs).
std::string make_key(const std::vector<std::vector<std::byte>>& blobs,
                     const net::Topology& topo, std::uint64_t stripe,
                     const Options& opt) {
  std::size_t total = 11 * sizeof(std::uint64_t);
  for (const auto& b : blobs) total += b.size() + sizeof(std::uint64_t);
  std::string key;
  key.reserve(total);
  append_header(key, topo, stripe, opt);
  for (const auto& b : blobs) {
    append_u64(key, b.size());
    key.append(reinterpret_cast<const char*>(b.data()), b.size());
  }
  return key;
}

/// Skeleton key: the same header plus the raw summary table (trivially
/// copyable, fixed 32 bytes per rank).
std::string make_skeleton_key(const std::vector<ViewSummary>& summaries,
                              const net::Topology& topo, std::uint64_t stripe,
                              const Options& opt) {
  std::string key;
  key.reserve(11 * sizeof(std::uint64_t) +
              summaries.size() * sizeof(ViewSummary));
  append_header(key, topo, stripe, opt);
  if (!summaries.empty()) {
    key.append(reinterpret_cast<const char*>(summaries.data()),
               summaries.size() * sizeof(ViewSummary));
  }
  return key;
}

std::shared_ptr<const Plan> build(
    const std::vector<std::vector<std::byte>>& blobs,
    const net::Topology& topo, std::uint64_t stripe, const Options& opt) {
  std::vector<FileView> views;
  views.reserve(blobs.size());
  for (const auto& b : blobs) views.push_back(FileView::deserialize(b));
  return std::make_shared<const Plan>(std::move(views), topo, stripe, opt);
}

}  // namespace

std::shared_ptr<const Plan> PlanCache::get_or_build(
    const std::vector<std::vector<std::byte>>& view_blobs,
    const net::Topology& topo, std::uint64_t stripe_size, const Options& opt) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  std::string key = make_key(view_blobs, topo, stripe_size, opt);
  CacheState& s = state();
  // The mutex is held across the build on purpose: concurrent ranks of one
  // run present the same key, and one construction should serve them all.
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.plans.find(key);
  if (it != s.plans.end()) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  if (s.plans.size() >= CacheState::kMaxEntries) s.plans.clear();
  auto plan = build(view_blobs, topo, stripe_size, opt);
  s.plans.emplace(std::move(key), plan);
  return plan;
}

std::shared_ptr<const PlanSkeleton> PlanCache::get_or_build_skeleton(
    const std::vector<ViewSummary>& summaries, const net::Topology& topo,
    std::uint64_t stripe_size, const Options& opt) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  std::string key = make_skeleton_key(summaries, topo, stripe_size, opt);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.skeletons.find(key);
  if (it != s.skeletons.end()) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  if (s.skeletons.size() >= CacheState::kMaxEntries) s.skeletons.clear();
  auto skel = std::make_shared<const PlanSkeleton>(summaries, topo,
                                                   stripe_size, opt);
  s.skeletons.emplace(std::move(key), skel);
  return skel;
}

PlanCache::Stats PlanCache::stats() {
  Stats st;
  st.lookups = g_lookups.load(std::memory_order_relaxed);
  st.hits = g_hits.load(std::memory_order_relaxed);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  st.entries = s.plans.size() + s.skeletons.size();
  return st;
}

void PlanCache::clear() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.plans.clear();
  s.skeletons.clear();
}

}  // namespace tpio::coll
