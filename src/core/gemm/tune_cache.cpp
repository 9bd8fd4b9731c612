// Persistent tuning-cache file: hand-rolled JSON (one fixed shape, no
// dependency), a process-wide memo of the parsed env-selected file, and
// deterministic rendering so unchanged stores can skip the write.
#include "core/gemm/tune_cache.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "util/cpu_info.hpp"
#include "util/metrics.hpp"
#include "util/sync.hpp"

namespace ldla {

namespace {

struct ParsedCache {
  std::string cpu;
  std::map<std::string, TuneCacheEntry> entries;  // bucket key -> decision
};

// ---------------------------------------------------------------------------
// Tolerant scanner for the one JSON shape this file ever holds. Any
// deviation — unknown key, truncation, trailing garbage, wrong schema —
// fails the whole parse, and callers treat a failed parse as an empty
// cache.
// ---------------------------------------------------------------------------

struct Cursor {
  const char* p;
  const char* end;
};

void skip_ws(Cursor& c) {
  while (c.p < c.end &&
         (*c.p == ' ' || *c.p == '\n' || *c.p == '\t' || *c.p == '\r')) {
    ++c.p;
  }
}

bool eat(Cursor& c, char ch) {
  skip_ws(c);
  if (c.p < c.end && *c.p == ch) {
    ++c.p;
    return true;
  }
  return false;
}

bool parse_string(Cursor& c, std::string& out) {
  skip_ws(c);
  if (c.p >= c.end || *c.p != '"') return false;
  ++c.p;
  out.clear();
  while (c.p < c.end && *c.p != '"') {
    char ch = *c.p;
    if (ch == '\\') {
      ++c.p;
      if (c.p >= c.end) return false;
      switch (*c.p) {
        case '"': ch = '"'; break;
        case '\\': ch = '\\'; break;
        case 'n': ch = '\n'; break;
        case 't': ch = '\t'; break;
        default: return false;
      }
    }
    out += ch;
    ++c.p;
  }
  if (c.p >= c.end) return false;
  ++c.p;  // closing quote
  return true;
}

bool parse_u64(Cursor& c, std::size_t& out) {
  skip_ws(c);
  if (c.p >= c.end || *c.p < '0' || *c.p > '9') return false;
  std::size_t v = 0;
  while (c.p < c.end && *c.p >= '0' && *c.p <= '9') {
    v = v * 10 + static_cast<std::size_t>(*c.p - '0');
    ++c.p;
  }
  out = v;
  return true;
}

bool parse_entry(Cursor& c, TuneCacheEntry& e) {
  if (!eat(c, '{')) return false;
  bool first = true;
  for (;;) {
    if (eat(c, '}')) return true;
    if (!first && !eat(c, ',')) return false;
    first = false;
    std::string key;
    if (!parse_string(c, key) || !eat(c, ':')) return false;
    if (key == "variant") {
      if (!parse_string(c, e.variant)) return false;
    } else if (key == "kc_words") {
      if (!parse_u64(c, e.kc_words)) return false;
    } else if (key == "mc") {
      if (!parse_u64(c, e.mc)) return false;
    } else {
      return false;
    }
  }
}

bool parse_cache(const std::string& body, ParsedCache& out) {
  Cursor c{body.data(), body.data() + body.size()};
  if (!eat(c, '{')) return false;
  bool first = true;
  for (;;) {
    if (eat(c, '}')) break;
    if (!first && !eat(c, ',')) return false;
    first = false;
    std::string key;
    if (!parse_string(c, key) || !eat(c, ':')) return false;
    if (key == "schema") {
      std::string schema;
      if (!parse_string(c, schema) || schema != "ldla-tune-cache-v1") {
        return false;
      }
    } else if (key == "cpu") {
      if (!parse_string(c, out.cpu)) return false;
    } else if (key == "entries") {
      if (!eat(c, '{')) return false;
      bool efirst = true;
      for (;;) {
        if (eat(c, '}')) break;
        if (!efirst && !eat(c, ',')) return false;
        efirst = false;
        std::string bucket;
        TuneCacheEntry e;
        if (!parse_string(c, bucket) || !eat(c, ':') || !parse_entry(c, e)) {
          return false;
        }
        if (e.variant.empty() || e.kc_words == 0 || e.mc == 0) return false;
        out.entries[bucket] = e;
      }
    } else {
      return false;
    }
  }
  skip_ws(c);
  return c.p == c.end;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
}

/// Deterministic rendering: fixed key order, entries sorted by bucket key
/// (std::map order). Byte-identical input state => byte-identical file.
std::string render_cache(const ParsedCache& pc) {
  std::string out = "{\n  \"schema\": \"ldla-tune-cache-v1\",\n  \"cpu\": \"";
  append_escaped(out, pc.cpu);
  out += "\",\n  \"entries\": {";
  bool first = true;
  for (const auto& [bucket, e] : pc.entries) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"";
    append_escaped(out, bucket);
    out += "\": {\"variant\": \"";
    append_escaped(out, e.variant);
    out += "\", \"kc_words\": ";
    out += std::to_string(e.kc_words);
    out += ", \"mc\": ";
    out += std::to_string(e.mc);
    out += '}';
  }
  out += "\n  }\n}\n";
  return out;
}

bool read_whole_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[4096];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_whole_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

std::string bucket_key(std::size_t k_words) {
  std::string key = "b";
  key += std::to_string(tune_shape_bucket(k_words));
  return key;
}

/// Load + parse `path`; false when absent/unreadable/corrupt/foreign-CPU
/// (out is then an empty cache for the current CPU, ready to store into).
bool load_for_this_cpu(const std::string& path, ParsedCache& out) {
  out.cpu = tune_cache_cpu_signature();
  out.entries.clear();
  std::string body;
  if (!read_whole_file(path, body)) return false;
  ParsedCache pc;
  if (!parse_cache(body, pc) || pc.cpu != out.cpu) return false;
  out.entries = std::move(pc.entries);
  return true;
}

struct Memo {
  bool loaded = false;
  std::string path;
  ParsedCache pc;
};

Mutex g_memo_mu;
Memo g_memo LDLA_GUARDED_BY(g_memo_mu);

void count_hit() {
  static metrics::Counter& c = metrics::counter(
      "ldla_tune_cache_hits_total",
      "tuning-cache lookups answered from the persistent file");
  c.inc();
}

void count_miss() {
  static metrics::Counter& c = metrics::counter(
      "ldla_tune_cache_misses_total",
      "tuning-cache lookups that fell through to re-tuning");
  c.inc();
}

}  // namespace

std::string tune_cache_cpu_signature() {
  const CpuInfo& ci = cpu_info();
  const CpuFeatures& f = ci.features;
  std::string sig = ci.brand;
  sig += "|feat=";
  const bool flags[] = {f.popcnt, f.sse42,    f.ssse3,          f.avx2,
                        f.avx512f, f.avx512bw, f.avx512vpopcntdq};
  for (bool b : flags) sig += b ? '1' : '0';
  char buf[128];
  std::snprintf(buf, sizeof(buf), "|l1d=%zu,l2=%zu,l3=%zu,line=%zu",
                ci.cache.l1d, ci.cache.l2, ci.cache.l3, ci.cache.line);
  sig += buf;
  return sig;
}

std::size_t tune_shape_bucket(std::size_t k_words) {
  if (k_words == 0) return 0;
  return static_cast<std::size_t>(std::bit_width(k_words - 1));
}

std::string tune_cache_path() {
  const char* env = std::getenv("LDLA_TUNE_CACHE");
  return env != nullptr ? std::string(env) : std::string();
}

std::optional<TuneCacheEntry> tune_cache_lookup_at(const std::string& path,
                                                   std::size_t k_words) {
  ParsedCache pc;
  if (!load_for_this_cpu(path, pc)) return std::nullopt;
  const auto it = pc.entries.find(bucket_key(k_words));
  if (it == pc.entries.end()) return std::nullopt;
  return it->second;
}

bool tune_cache_store_at(const std::string& path, std::size_t k_words,
                         const TuneCacheEntry& entry) {
  ParsedCache pc;
  load_for_this_cpu(path, pc);  // corrupt/foreign files are overwritten
  const std::string key = bucket_key(k_words);
  const auto it = pc.entries.find(key);
  if (it != pc.entries.end() && it->second.variant == entry.variant &&
      it->second.kc_words == entry.kc_words && it->second.mc == entry.mc) {
    return true;  // identical decision already persisted: keep bytes stable
  }
  pc.entries[key] = entry;
  return write_whole_file(path, render_cache(pc));
}

std::optional<TuneCacheEntry> tune_cache_lookup(std::size_t k_words) {
  const std::string path = tune_cache_path();
  if (path.empty()) return std::nullopt;
  MutexLock lock(g_memo_mu);
  if (!g_memo.loaded || g_memo.path != path) {
    load_for_this_cpu(path, g_memo.pc);
    g_memo.path = path;
    g_memo.loaded = true;
  }
  const auto it = g_memo.pc.entries.find(bucket_key(k_words));
  if (it == g_memo.pc.entries.end()) {
    count_miss();
    return std::nullopt;
  }
  count_hit();
  return it->second;
}

void tune_cache_store(std::size_t k_words, const TuneCacheEntry& entry) {
  const std::string path = tune_cache_path();
  if (path.empty()) return;
  MutexLock lock(g_memo_mu);
  tune_cache_store_at(path, k_words, entry);
  // Refresh the memo from the just-written state.
  load_for_this_cpu(path, g_memo.pc);
  g_memo.path = path;
  g_memo.loaded = true;
}

}  // namespace ldla
