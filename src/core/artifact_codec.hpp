// Explicit binary codec for the persisted subset of a design-cache entry.
//
// svc::DiskStore spills one encoded PersistedArtifact per design so a
// restarted server warm-starts from disk instead of recomputing the flow.
// The format is deliberately explicit and versioned:
//
//   [0..3]   magic "SITA"
//   [4..7]   format version (u32 LE) — kArtifactFormatVersion; a binary
//            with a different version REJECTS the file instead of
//            misreading it (decode returns version_mismatch, the store
//            removes the file and the design runs cold)
//   [8..15]  payload byte count (u64 LE)
//   [16..23] FNV-1a 64 hash of the payload (u64 LE) — truncation and
//            bit flips anywhere in the payload are detected here
//   [24..]   payload: length-prefixed fields in a fixed order
//
// The payload holds everything a restarted service needs to serve the
// design as a pure cache hit: the canonical cache key and content
// address, the canonical STG text, the canonical netlist, the verify
// verdict, and (for speed-independent designs) the structured FlowReport
// with both derived constraint lists. The payload ends at the report:
// nothing rendered from it is stored. The loader re-renders the canonical
// JSON from the decoded report, which carries every field the rendering
// reads, so a disk-warm response is byte-identical to the cold run that
// produced the file.
//
// Decoding is paranoid by construction: every read is bounds-checked,
// list counts are validated against the remaining payload before any
// allocation, and any inconsistency (bad magic, short file, trailing
// bytes, hash mismatch, out-of-range enum) yields `corrupt` — never an
// exception, never a partially filled artifact the caller could trust.
#pragma once

#include <cstdint>
#include <string>

#include "core/phase.hpp"
#include "core/report.hpp"

namespace sitime::core {

/// Bump whenever the payload layout changes: a version-(N-1) file is
/// invalidated (skipped and removed) by a version-N binary, never
/// misread.
inline constexpr std::uint32_t kArtifactFormatVersion = 2;

/// The persisted subset of one design-cache entry. The decomposition is
/// deliberately NOT part of it: only entries whose completed phase
/// already answers every request mode are spilled, so a loaded entry is
/// terminal — it serves verify and derive as hits and is never advanced.
/// Nothing rendered from the report is part of it either: a reader renders
/// the forms it needs from `report`.
struct PersistedArtifact {
  std::string canonical;      // full cache key (content + options)
  std::string key_hex;        // public content-address (16 hex digits)
  std::string stg_canonical;  // canonical STG text (parse_astg round-trip)
  std::string netlist_eqn;    // canonical netlist (explicit or synthesized)
  bool explicit_netlist = false;
  Phase completed = Phase::parsed;
  std::string verify_offender;  // empty = speed independent
  /// True when the derive phase produced a report (speed-independent
  /// designs); `report` is meaningful exactly then.
  bool has_report = false;
  FlowReport report;  // structured report, constraint lists included
};

std::string encode_artifact(const PersistedArtifact& artifact);

enum class ArtifactDecodeStatus {
  ok,
  /// Well-formed header, different format version: a stale file from
  /// another binary generation. Skip and remove; never attempt to read.
  version_mismatch,
  /// Anything else: short/truncated/bit-flipped/trailing-garbage bytes.
  corrupt,
};

/// Decodes `bytes` into `artifact`. On anything but `ok` the artifact is
/// unspecified and must not be used; `error` (when non-null) receives a
/// one-line diagnosis.
ArtifactDecodeStatus decode_artifact(const std::string& bytes,
                                     PersistedArtifact& artifact,
                                     std::string* error = nullptr);

/// FNV-1a 64 — the payload checksum of the header, exposed so tests can
/// craft deliberately mismatched files.
std::uint64_t artifact_fnv1a(const char* data, std::size_t size);

}  // namespace sitime::core
