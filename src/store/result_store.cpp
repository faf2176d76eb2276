#include "store/result_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/contracts.hpp"
#include "common/faults.hpp"
#include "common/fmt.hpp"
#include "obs/metrics.hpp"
#include "store/appendio.hpp"
#include "store/json.hpp"

namespace araxl::store {

namespace {

// One shared definition with the reporters (store/json.hpp): the
// byte-identity contract allows no drift between the two serializers.
std::string fnum(double v) { return json_double(v); }
std::string unum(std::uint64_t v) { return json_u64(v); }

constexpr std::string_view kCheckMarker = ",\"check\":\"";

std::uint64_t field_u64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.get(key);
  check(v != nullptr, "store record is missing field '" + std::string(key) + "'");
  return v->as_u64();
}

double field_double(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.get(key);
  check(v != nullptr, "store record is missing field '" + std::string(key) + "'");
  return v->as_double();
}

std::string field_string(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.get(key);
  check(v != nullptr, "store record is missing field '" + std::string(key) + "'");
  return v->as_string();
}

// Tolerant accessor for fields added after the seed schema: records written
// by older builds simply lack them, and 0 is the correct reading (no schema
// bump — the fingerprint already embeds the build version for keying).
std::uint64_t field_u64_or(const JsonValue& obj, std::string_view key,
                           std::uint64_t dflt) {
  const JsonValue* v = obj.get(key);
  return v == nullptr ? dflt : v->as_u64();
}

}  // namespace

std::string ResultStore::serialize(const StoredResult& r) {
  std::string out = "{";
  out += "\"fp\":\"" + json_escape(r.fingerprint) + "\",";
  out += "\"version\":\"" + json_escape(r.version) + "\",";
  out += "\"config\":\"" + json_escape(r.config) + "\",";
  out += "\"label\":\"" + json_escape(r.label) + "\",";
  out += "\"kernel\":\"" + json_escape(r.kernel) + "\",";
  out += "\"bpl\":" + unum(r.bytes_per_lane) + ",";
  out += "\"seed\":" + unum(r.seed) + ",";
  out += "\"stats\":{";
  out += "\"cycles\":" + unum(r.stats.cycles) + ",";
  out += "\"total_lanes\":" + unum(r.stats.total_lanes) + ",";
  out += "\"vinstrs\":" + unum(r.stats.vinstrs) + ",";
  out += "\"scalar_ops\":" + unum(r.stats.scalar_ops) + ",";
  out += "\"flops\":" + unum(r.stats.flops) + ",";
  out += "\"fpu_result_elems\":" + unum(r.stats.fpu_result_elems) + ",";
  out += "\"mem_read_bytes\":" + unum(r.stats.mem_read_bytes) + ",";
  out += "\"mem_write_bytes\":" + unum(r.stats.mem_write_bytes) + ",";
  out += "\"issue_stall_cycles\":" + unum(r.stats.issue_stall_cycles) + ",";
  out += "\"scalar_wait_cycles\":" + unum(r.stats.scalar_wait_cycles) + ",";
  out += "\"unit_busy_elems\":[";
  for (std::size_t u = 0; u < kNumUnits; ++u) {
    if (u != 0) out += ",";
    out += unum(r.stats.unit_busy_elems[u]);
  }
  out += "],";
  // Provenance fields (excluded from RunStats::operator== and zeroed in
  // default reports, but persisted so `araxl stats` can roll up batching
  // telemetry from a finished sweep without re-simulating).
  out += "\"wakeups_total\":" + unum(r.stats.wakeups_total) + ",";
  out += "\"batched_iterations\":" + unum(r.stats.batched_iterations) + ",";
  out += "\"batch_rejects\":[";
  for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
    if (i != 0) out += ",";
    out += unum(r.stats.batch_rejects[i]);
  }
  out += "],";
  out += "\"batch_clamps\":" + unum(r.stats.batch_clamps) + ",";
  out += "\"warmup_projected\":" + unum(r.stats.warmup_projected) + ",";
  // Stall taxonomy (indexed by StallReason): the real attribution is
  // persisted so `araxl report` / `araxl stats` can break down a sweep
  // from the store even though default reports zero these fields.
  out += "\"stall_cycles\":[";
  for (std::size_t i = 0; i < kNumStallReasons; ++i) {
    if (i != 0) out += ",";
    out += unum(r.stats.stall_cycles[i]);
  }
  out += "],";
  out += "\"fpu_busy_slots\":" + unum(r.stats.fpu_busy_slots);
  out += "},";
  out += std::string("\"verified\":") + (r.verified ? "true" : "false") + ",";
  out += "\"tolerance\":" + fnum(r.tolerance) + ",";
  out += "\"checked\":" + unum(r.verify.checked) + ",";
  out += "\"max_rel_err\":" + fnum(r.verify.max_rel_err);
  out += "}";
  // Payload checksum over the exact line text: flipped bits anywhere in
  // the record (including the stats) invalidate it.
  const std::string check = strprintf(
      "%016llx", static_cast<unsigned long long>(hash64(out)));
  out.insert(out.size() - 1, std::string(kCheckMarker) + check + "\"");
  return out;
}

StoredResult ResultStore::deserialize(std::string_view line) {
  // Verify the checksum against the literal text first: the checked
  // content is the line with the trailing `,"check":"..."` spliced out.
  const std::size_t marker = line.rfind(kCheckMarker);
  check(marker != std::string_view::npos, "store record has no checksum");
  std::string body(line.substr(0, marker));
  body += "}";
  const JsonValue doc = parse_json(line);
  const std::string& stored_check = field_string(doc, "check");
  const std::string computed = strprintf(
      "%016llx", static_cast<unsigned long long>(hash64(body)));
  check(stored_check == computed, "store record checksum mismatch");

  StoredResult r;
  r.fingerprint = field_string(doc, "fp");
  r.version = field_string(doc, "version");
  r.config = field_string(doc, "config");
  r.label = field_string(doc, "label");
  r.kernel = field_string(doc, "kernel");
  r.bytes_per_lane = field_u64(doc, "bpl");
  r.seed = field_u64(doc, "seed");

  const JsonValue* stats = doc.get("stats");
  check(stats != nullptr, "store record is missing stats");
  r.stats.cycles = field_u64(*stats, "cycles");
  r.stats.total_lanes = field_u64(*stats, "total_lanes");
  r.stats.vinstrs = field_u64(*stats, "vinstrs");
  r.stats.scalar_ops = field_u64(*stats, "scalar_ops");
  r.stats.flops = field_u64(*stats, "flops");
  r.stats.fpu_result_elems = field_u64(*stats, "fpu_result_elems");
  r.stats.mem_read_bytes = field_u64(*stats, "mem_read_bytes");
  r.stats.mem_write_bytes = field_u64(*stats, "mem_write_bytes");
  r.stats.issue_stall_cycles = field_u64(*stats, "issue_stall_cycles");
  r.stats.scalar_wait_cycles = field_u64(*stats, "scalar_wait_cycles");
  const JsonValue* busy = stats->get("unit_busy_elems");
  check(busy != nullptr && busy->kind == JsonValue::Kind::kArray &&
            busy->items.size() == kNumUnits,
        "store record has a malformed unit_busy_elems array");
  for (std::size_t u = 0; u < kNumUnits; ++u) {
    r.stats.unit_busy_elems[u] = busy->items[u].as_u64();
  }
  r.stats.wakeups_total = field_u64_or(*stats, "wakeups_total", 0);
  r.stats.batched_iterations = field_u64_or(*stats, "batched_iterations", 0);
  if (const JsonValue* rej = stats->get("batch_rejects")) {
    check(rej->kind == JsonValue::Kind::kArray &&
              rej->items.size() == kNumBatchRejects,
          "store record has a malformed batch_rejects array");
    for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
      r.stats.batch_rejects[i] = rej->items[i].as_u64();
    }
  }
  // Pre-clamp/projection records simply lack these; zero is the correct
  // reading (those engines never clamped at a barrier or projected warmup).
  r.stats.batch_clamps = field_u64_or(*stats, "batch_clamps", 0);
  r.stats.warmup_projected = field_u64_or(*stats, "warmup_projected", 0);
  // Pre-attribution records simply lack these; zero is the correct reading.
  if (const JsonValue* st = stats->get("stall_cycles")) {
    check(st->kind == JsonValue::Kind::kArray &&
              st->items.size() == kNumStallReasons,
          "store record has a malformed stall_cycles array");
    for (std::size_t i = 0; i < kNumStallReasons; ++i) {
      r.stats.stall_cycles[i] = st->items[i].as_u64();
    }
  }
  r.stats.fpu_busy_slots = field_u64_or(*stats, "fpu_busy_slots", 0);

  const JsonValue* verified = doc.get("verified");
  check(verified != nullptr, "store record is missing 'verified'");
  r.verified = verified->as_bool();
  r.tolerance = field_double(doc, "tolerance");
  r.verify.checked = field_u64(doc, "checked");
  r.verify.max_rel_err = field_double(doc, "max_rel_err");

  // Finally, the stored fingerprint must match one recomputed from the
  // record's own provenance — a tampered key field (or a record written
  // under a different fingerprint scheme) is recomputed, never served.
  const std::string expect = fingerprint(
      JobKey{r.config, r.kernel, r.bytes_per_lane, r.seed, r.version});
  check(r.fingerprint == expect, "store record provenance fingerprint mismatch");
  return r;
}

ResultStore::ResultStore(std::string path) : path_(std::move(path)) { load(); }

void ResultStore::load() {
  std::ifstream f(path_, std::ios::binary);
  if (!f.good()) return;  // missing store: start empty, create on flush
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    ++load_report_.lines;
    StoredResult r;
    try {
      r = deserialize(line);
    } catch (const ContractViolation& e) {
      if (std::string_view(e.what()).find("provenance fingerprint") !=
          std::string_view::npos) {
        ++load_report_.fp_mismatches;
      } else {
        ++load_report_.bad_lines;
      }
      continue;
    }
    const auto [it, inserted] = index_.try_emplace(r.fingerprint, records_.size());
    if (inserted) {
      records_.push_back(std::move(r));
    } else {
      records_[it->second] = std::move(r);  // later line supersedes
      ++load_report_.superseded;
    }
  }
  load_report_.loaded = records_.size();
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::optional<StoredResult> ResultStore::find(const std::string& fp) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(fp);
  if (it == index_.end()) return std::nullopt;
  return records_[it->second];
}

void ResultStore::put(StoredResult r) {
  check(!r.fingerprint.empty(), "stored result needs a fingerprint");
  const std::lock_guard<std::mutex> lock(mu_);
  // Serialize now: an overwrite simply appends a later line, which
  // supersedes the earlier one on the next load.
  pending_ += serialize(r);
  pending_ += '\n';
  const auto [it, inserted] = index_.try_emplace(r.fingerprint, records_.size());
  if (inserted) {
    records_.push_back(std::move(r));
  } else {
    records_[it->second] = std::move(r);
  }
}

void ResultStore::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return;
  // One append-mode write per flush (torn-tail healing, fault injection,
  // and optional fsync live in append_lines, shared with the serve-layer
  // job ledger): concurrent writers interleave at line granularity
  // (O_APPEND), and a torn line from a crash is skipped by the
  // corruption-tolerant loader. On failure pending_ is retained: a later
  // flush re-appends every record as whole lines, and the loader skips
  // the torn line and dedups the rest.
  AppendFaults faults;
  if (faults_ != nullptr) {
    faults.open_fails = [this] { return faults_->store_open_fails(); };
    faults.short_write = [this](std::size_t len) {
      return faults_->store_short_write(len);
    };
  }
  append_lines(path_, pending_, faults, fsync_);
  if (metrics_ != nullptr) {
    metrics_->counter("store.flushes")->inc();
    metrics_->counter("store.flush_bytes")->add(pending_.size());
  }
  pending_.clear();
}

std::size_t ResultStore::gc(const std::string& current_version) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredResult> kept;
  kept.reserve(records_.size());
  for (StoredResult& r : records_) {
    if (r.version == current_version) kept.push_back(std::move(r));
  }
  const std::size_t removed = records_.size() - kept.size();
  records_ = std::move(kept);
  index_.clear();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    index_.emplace(records_[i].fingerprint, i);
  }
  // Compact: atomic temp-file + rename of the full surviving snapshot
  // (this is the one mutation that must not be an append).
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.good()) {
      throw StoreIoError("cannot open store temp file for writing: " + tmp);
    }
    for (const StoredResult& r : records_) {
      const std::string line = serialize(r);
      f.write(line.data(), static_cast<std::streamsize>(line.size()));
      f.put('\n');
    }
    f.flush();
    if (!f.good()) {
      throw StoreIoError("failed writing store temp file: " + tmp);
    }
  }
  if (fsync_) {
    // The rename below only atomically replaces *names*; without syncing
    // the temp file's data first, a power loss can leave the new name
    // pointing at a truncated file.
    const int fd = ::open(tmp.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  if (faults_ != nullptr && faults_->store_rename_fails()) {
    std::remove(tmp.c_str());  // a failed rename leaves the original intact
    throw StoreIoError("injected rename failure on store temp file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw StoreIoError("cannot rename store temp file over " + path_);
  }
  if (fsync_) fsync_parent_dir(path_);  // make the rename itself durable
  pending_.clear();
  return removed;
}

std::vector<StoredResult> ResultStore::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

}  // namespace araxl::store
