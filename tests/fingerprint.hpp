#pragma once
// One textual fingerprint of every RunResult field, shared by the
// bit-identity suites and the golden table (tests/golden_test.cpp).
//
// A fingerprint is a space-separated list of `name=value` tokens in a fixed
// order. Integers print in decimal, doubles as %a hex floats (so equal
// fingerprints mean bit-equal doubles), strings double-quoted with `"` and
// `\` escaped. The field-count asserts below stop compiling when a struct
// gains a field the fingerprint does not cover yet.

#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness/runner.hpp"
#include "harness/tenancy.hpp"
#include "pfs/qos.hpp"

namespace tpio::test {

namespace fp_detail {

/// Converts to anything; counts an aggregate's fields by brace-initializing
/// it with one more AnyField until that stops compiling.
struct AnyField {
  template <class T>
  operator T() const;
};

template <class T, class... A>
constexpr std::size_t field_count() {
  if constexpr (requires { T{A{}..., AnyField{}}; }) {
    return field_count<T, A..., AnyField>();
  } else {
    return sizeof...(A);
  }
}

static_assert(field_count<coll::PhaseTimings>() == 9);
static_assert(field_count<coll::AutoDecision>() == 6);
static_assert(field_count<coll::FaultStats>() == 3);
static_assert(field_count<pfs::QosStats>() == 4);
static_assert(field_count<xp::SubfileResult>() == 6);
static_assert(field_count<xp::RunResult>() == 19);
static_assert(field_count<xp::TenantResult>() == 3);

}  // namespace fp_detail

/// Appends `name=value` tokens to a fingerprint string.
class FingerprintWriter {
 public:
  template <class T>
  FingerprintWriter& field(std::string_view name, const T& v) {
    if (!out_.empty()) out_ += ' ';
    out_ += prefix_;
    out_ += name;
    out_ += '=';
    if constexpr (std::is_same_v<T, bool>) {
      out_ += v ? '1' : '0';
    } else if constexpr (std::is_enum_v<T>) {
      out_ += std::to_string(static_cast<int>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
      out_ += buf;
    } else if constexpr (std::is_integral_v<T>) {
      out_ += std::to_string(v);
    } else {
      out_ += '"';
      for (char c : std::string_view(v)) {
        if (c == '"' || c == '\\') out_ += '\\';
        out_ += c;
      }
      out_ += '"';
    }
    return *this;
  }

  FingerprintWriter& timings(std::string_view name,
                             const coll::PhaseTimings& t) {
    Scope s(*this, name);
    field("meta", t.meta).field("pack", t.pack).field("gather", t.gather);
    field("forward", t.forward).field("shuffle", t.shuffle);
    field("sync", t.sync).field("write", t.write);
    field("backoff", t.backoff).field("total", t.total);
    return *this;
  }

  FingerprintWriter& qos(std::string_view name, const pfs::QosStats& q) {
    Scope s(*this, name);
    field("requests", q.requests).field("busy", q.busy);
    field("cross_wait", q.cross_wait).field("peak_active", q.peak_active);
    return *this;
  }

  FingerprintWriter& faults(std::string_view name, const coll::FaultStats& f) {
    Scope s(*this, name);
    field("retries", f.retries).field("giveups", f.giveups);
    field("degraded_cycles", f.degraded_cycles);
    return *this;
  }

  FingerprintWriter& run(const xp::RunResult& r) {
    field("arrival", r.arrival).field("completion", r.completion);
    field("makespan", r.makespan);
    timings("rank_sum", r.rank_sum);
    timings("agg_sum", r.agg_sum);
    timings("agg_max", r.agg_max);
    field("aggregators", r.aggregators).field("cycles", r.cycles);
    field("bytes", r.bytes);
    field("inter_node_bytes", r.inter_node_bytes);
    field("inter_node_messages", r.inter_node_messages);
    field("intra_node_bytes", r.intra_node_bytes);
    field("pipelined_overlap", r.pipelined_overlap);
    field("gather_critical", r.gather_critical);
    {
      Scope s(*this, "autotune");
      field("engaged", r.autotune.engaged).field("chosen", r.autotune.chosen);
      field("from_cache", r.autotune.from_cache);
      field("probe_cycles", r.autotune.probe_cycles);
      field("comm_share", r.autotune.comm_share);
      field("aio_ratio", r.autotune.aio_ratio);
    }
    faults("faults", r.faults);
    field("io_error", r.io_error).field("verify_error", r.verify_error);
    field("subfiles", r.subfiles.size());
    for (std::size_t i = 0; i < r.subfiles.size(); ++i) {
      const xp::SubfileResult& sf = r.subfiles[i];
      Scope s(*this, "subfiles[" + std::to_string(i) + "]");
      field("group", sf.group).field("ranks", sf.ranks);
      field("aggregators", sf.aggregators).field("bytes", sf.bytes);
      field("completion", sf.completion);
      qos("qos", sf.qos);
    }
    return *this;
  }

  FingerprintWriter& tenant(const xp::TenantResult& t) {
    run(t.run);
    qos("qos", t.qos);
    field("slowdown", t.slowdown);
    return *this;
  }

  std::string take() { return std::move(out_); }

 private:
  /// Prefixes every field written while alive with `name.`.
  class Scope {
   public:
    Scope(FingerprintWriter& w, std::string_view name)
        : w_(w), saved_(w.prefix_.size()) {
      w_.prefix_ += name;
      w_.prefix_ += '.';
    }
    ~Scope() { w_.prefix_.resize(saved_); }

   private:
    FingerprintWriter& w_;
    std::size_t saved_;
  };

  std::string out_;
  std::string prefix_;
};

/// Every RunResult field, subfiles (with their QoS stats) included.
inline std::string fingerprint(const xp::RunResult& r) {
  return FingerprintWriter().run(r).take();
}

/// A tenant's RunResult plus its QoS rollup and slowdown.
inline std::string fingerprint(const xp::TenantResult& t) {
  return FingerprintWriter().tenant(t).take();
}

/// Every tenant of a multi-run, one ` | `-separated section per tenant.
inline std::string fingerprint(const xp::MultiRunResult& m) {
  std::string s = FingerprintWriter().field("makespan", m.makespan).take();
  for (const xp::TenantResult& t : m.tenants) {
    s += " | ";
    s += fingerprint(t);
  }
  return s;
}

/// Splits a fingerprint into its `name=value` tokens (quoted values may
/// hold spaces).
inline std::vector<std::string_view> fingerprint_tokens(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == ' ') ++i;
    const std::size_t start = i;
    bool quoted = false;
    for (; i < s.size() && (quoted || s[i] != ' '); ++i) {
      if (s[i] == '\\' && quoted) {
        ++i;
      } else if (s[i] == '"') {
        quoted = !quoted;
      }
    }
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

/// Empty when the fingerprints are equal; otherwise names the first token
/// that differs, e.g. `rank_sum.write: expected 123, got 124`.
inline std::string first_difference(std::string_view expected,
                                    std::string_view actual) {
  if (expected == actual) return {};
  const auto e = fingerprint_tokens(expected);
  const auto a = fingerprint_tokens(actual);
  for (std::size_t i = 0; i < e.size() || i < a.size(); ++i) {
    const std::string_view et = i < e.size() ? e[i] : "<missing>";
    const std::string_view at = i < a.size() ? a[i] : "<missing>";
    if (et == at) continue;
    const std::size_t eq = et.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? et : et.substr(0, eq);
    const auto value = [](std::string_view t) {
      const std::size_t p = t.find('=');
      return p == std::string_view::npos ? t : t.substr(p + 1);
    };
    return std::string(name) + ": expected " + std::string(value(et)) +
           ", got " + std::string(value(at));
  }
  return "whitespace differs";
}

}  // namespace tpio::test
