#include "core/artifact_codec.hpp"

#include <cstring>

namespace sitime::core {

namespace {

constexpr char kMagic[4] = {'S', 'I', 'T', 'A'};
constexpr std::size_t kHeaderBytes = 24;

// ---- writer ----------------------------------------------------------------

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void put_bool(std::string& out, bool value) {
  out.push_back(value ? '\1' : '\0');
}

void put_double(std::string& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& text) {
  put_u64(out, text.size());
  out += text;
}

void put_constraint(std::string& out, const ReportConstraint& constraint) {
  put_string(out, constraint.gate);
  put_string(out, constraint.before);
  put_string(out, constraint.after);
  put_u32(out, static_cast<std::uint32_t>(constraint.weight));
}

void put_constraints(std::string& out,
                     const std::vector<ReportConstraint>& list) {
  put_u64(out, list.size());
  for (const ReportConstraint& constraint : list)
    put_constraint(out, constraint);
}

// ---- reader ----------------------------------------------------------------

/// Bounds-checked cursor over the payload. Every getter returns false on
/// overrun and leaves the output untouched; callers bail out on the first
/// false, so a truncated payload can never yield a half-read field.
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t at = 0;

  std::size_t remaining() const { return size - at; }

  bool get_u32(std::uint32_t& value) {
    if (remaining() < 4) return false;
    value = 0;
    for (int i = 0; i < 4; ++i)
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data[at + i]))
               << (8 * i);
    at += 4;
    return true;
  }

  bool get_u64(std::uint64_t& value) {
    if (remaining() < 8) return false;
    value = 0;
    for (int i = 0; i < 8; ++i)
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data[at + i]))
               << (8 * i);
    at += 8;
    return true;
  }

  bool get_bool(bool& value) {
    if (remaining() < 1) return false;
    const unsigned char byte = static_cast<unsigned char>(data[at]);
    if (byte > 1) return false;  // anything else is bit rot, not a bool
    value = byte == 1;
    ++at;
    return true;
  }

  bool get_double(double& value) {
    std::uint64_t bits = 0;
    if (!get_u64(bits)) return false;
    std::memcpy(&value, &bits, sizeof(value));
    return true;
  }

  bool get_string(std::string& text) {
    std::uint64_t length = 0;
    if (!get_u64(length)) return false;
    if (length > remaining()) return false;
    text.assign(data + at, static_cast<std::size_t>(length));
    at += static_cast<std::size_t>(length);
    return true;
  }

  bool get_int(int& value) {
    std::uint32_t raw = 0;
    if (!get_u32(raw)) return false;
    value = static_cast<int>(raw);
    return true;
  }

  bool get_constraint(ReportConstraint& constraint) {
    return get_string(constraint.gate) && get_string(constraint.before) &&
           get_string(constraint.after) && get_int(constraint.weight);
  }

  bool get_constraints(std::vector<ReportConstraint>& list) {
    std::uint64_t count = 0;
    if (!get_u64(count)) return false;
    // Each constraint occupies at least its three length prefixes plus
    // the weight; checking against the remaining bytes bounds the
    // reserve below by the file size, so a flipped count byte cannot
    // demand a gigabyte allocation.
    if (count > remaining()) return false;
    list.clear();
    list.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      ReportConstraint constraint;
      if (!get_constraint(constraint)) return false;
      list.push_back(std::move(constraint));
    }
    return true;
  }
};

ArtifactDecodeStatus corrupt(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return ArtifactDecodeStatus::corrupt;
}

}  // namespace

std::uint64_t artifact_fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string encode_artifact(const PersistedArtifact& artifact) {
  std::string payload;
  payload.reserve(artifact.stg_canonical.size() +
                  artifact.netlist_eqn.size() + 1024);
  put_string(payload, artifact.canonical);
  put_string(payload, artifact.key_hex);
  put_string(payload, artifact.stg_canonical);
  put_string(payload, artifact.netlist_eqn);
  put_bool(payload, artifact.explicit_netlist);
  put_u32(payload, static_cast<std::uint32_t>(artifact.completed));
  put_string(payload, artifact.verify_offender);
  put_bool(payload, artifact.has_report);
  if (artifact.has_report) {
    const FlowReport& report = artifact.report;
    put_string(payload, report.design);
    put_string(payload, report.content_hash);
    put_u32(payload, static_cast<std::uint32_t>(report.state_count));
    put_u32(payload, static_cast<std::uint32_t>(report.gate_count));
    put_u32(payload, static_cast<std::uint32_t>(report.input_count));
    put_u32(payload, static_cast<std::uint32_t>(report.output_count));
    put_u32(payload, static_cast<std::uint32_t>(report.mg_component_count));
    put_u32(payload, static_cast<std::uint32_t>(report.jobs));
    put_u32(payload, static_cast<std::uint32_t>(report.expand_steps));
    put_u32(payload, static_cast<std::uint32_t>(report.expand_subtasks));
    put_u32(payload, static_cast<std::uint32_t>(report.cache_hits));
    put_u32(payload, static_cast<std::uint32_t>(report.cache_misses));
    put_double(payload, report.seconds);
    put_double(payload, report.decompose_seconds);
    put_double(payload, report.expand_seconds);
    put_constraints(payload, report.before);
    put_constraints(payload, report.after);
    put_u64(payload, report.gates.size());
    for (const GateReport& gate : report.gates) {
      put_string(payload, gate.gate);
      put_constraints(payload, gate.before);
      put_constraints(payload, gate.after);
    }
  }

  std::string bytes;
  bytes.reserve(kHeaderBytes + payload.size());
  bytes.append(kMagic, sizeof(kMagic));
  put_u32(bytes, kArtifactFormatVersion);
  put_u64(bytes, payload.size());
  put_u64(bytes, artifact_fnv1a(payload.data(), payload.size()));
  bytes += payload;
  return bytes;
}

ArtifactDecodeStatus decode_artifact(const std::string& bytes,
                                     PersistedArtifact& artifact,
                                     std::string* error) {
  if (bytes.size() < kHeaderBytes)
    return corrupt(error, "file shorter than the header");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return corrupt(error, "bad magic");
  Reader header{bytes.data() + sizeof(kMagic),
                kHeaderBytes - sizeof(kMagic)};
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_hash = 0;
  header.get_u32(version);
  header.get_u64(payload_size);
  header.get_u64(payload_hash);
  if (version != kArtifactFormatVersion) {
    if (error != nullptr)
      *error = "format version " + std::to_string(version) +
               " != " + std::to_string(kArtifactFormatVersion);
    return ArtifactDecodeStatus::version_mismatch;
  }
  if (payload_size != bytes.size() - kHeaderBytes)
    return corrupt(error, "payload length does not match the file size");
  const char* payload = bytes.data() + kHeaderBytes;
  if (artifact_fnv1a(payload, static_cast<std::size_t>(payload_size)) !=
      payload_hash)
    return corrupt(error, "payload checksum mismatch");

  Reader reader{payload, static_cast<std::size_t>(payload_size)};
  std::uint32_t completed = 0;
  if (!(reader.get_string(artifact.canonical) &&
        reader.get_string(artifact.key_hex) &&
        reader.get_string(artifact.stg_canonical) &&
        reader.get_string(artifact.netlist_eqn) &&
        reader.get_bool(artifact.explicit_netlist) &&
        reader.get_u32(completed) &&
        reader.get_string(artifact.verify_offender) &&
        reader.get_bool(artifact.has_report)))
    return corrupt(error, "truncated payload (entry fields)");
  if (completed > static_cast<std::uint32_t>(Phase::derived))
    return corrupt(error, "phase out of range");
  artifact.completed = static_cast<Phase>(completed);
  if (artifact.has_report) {
    FlowReport& report = artifact.report;
    std::uint64_t gate_count = 0;
    if (!(reader.get_string(report.design) &&
          reader.get_string(report.content_hash) &&
          reader.get_int(report.state_count) &&
          reader.get_int(report.gate_count) &&
          reader.get_int(report.input_count) &&
          reader.get_int(report.output_count) &&
          reader.get_int(report.mg_component_count) &&
          reader.get_int(report.jobs) &&
          reader.get_int(report.expand_steps) &&
          reader.get_int(report.expand_subtasks) &&
          reader.get_int(report.cache_hits) &&
          reader.get_int(report.cache_misses) &&
          reader.get_double(report.seconds) &&
          reader.get_double(report.decompose_seconds) &&
          reader.get_double(report.expand_seconds) &&
          reader.get_constraints(report.before) &&
          reader.get_constraints(report.after) &&
          reader.get_u64(gate_count)))
      return corrupt(error, "truncated payload (report fields)");
    if (gate_count > reader.remaining())
      return corrupt(error, "gate report count exceeds the payload");
    report.gates.clear();
    report.gates.reserve(static_cast<std::size_t>(gate_count));
    for (std::uint64_t i = 0; i < gate_count; ++i) {
      GateReport gate;
      if (!(reader.get_string(gate.gate) &&
            reader.get_constraints(gate.before) &&
            reader.get_constraints(gate.after)))
        return corrupt(error, "truncated payload (gate reports)");
      report.gates.push_back(std::move(gate));
    }
  }
  if (reader.remaining() != 0)
    return corrupt(error, "trailing bytes after the payload");
  if (error != nullptr) error->clear();
  return ArtifactDecodeStatus::ok;
}

}  // namespace sitime::core
