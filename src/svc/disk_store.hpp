// Persistent on-disk store under the design cache: one file per
// content-address, holding the core::encode_artifact bytes of a terminal
// cache entry so a restarted server warm-starts from disk instead of
// recomputing the flow (sitime_serve --cache-dir DIR).
//
// Layout of the directory:
//   <key_hex>.sit   one encoded PersistedArtifact (versioned, hashed —
//                   see core/artifact_codec.hpp)
//   <key_hex>.tmp   an in-progress write that never reached its atomic
//                   rename (a crash mid-write); swept at construction
//
// Durability contract: the store is a cache. A response you have read
// implies the entry survives a process crash; after a power loss an
// entry may be recomputed. save() writes to the temp name and renames it
// over the final name without fsync, so a reader never observes a
// half-written .sit file and a process crash at ANY instant leaves the
// store servable (either the old bytes, the new bytes, or a .tmp the
// next boot sweeps): the written pages belong to the kernel, not the
// process. A power loss before writeback can leave an empty or torn
// file; the load path validates every file and deletes what it cannot
// prove whole, so that costs warmth, never correctness. Everything is
// best-effort and non-throwing: an I/O failure is a false return, never
// an exception into the serving path.
//
// The store is a dumb byte mover by design — it never decodes what it
// carries and counts nothing. Validation (format version, payload hash,
// content-address cross-checks) belongs to AnalysisService::warm_from_disk,
// which owns the skip/corrupt policy; the service counts every write and
// load outcome in its metric registry (the sitime_disk_store_* families,
// read back by {"stats": true}).
#pragma once

#include <string>
#include <vector>

namespace sitime::svc {

class DiskStore {
 public:
  /// Opens (creating if needed) `dir` and sweeps stale .tmp files. Never
  /// throws: on failure ok() is false and init_error() says why — the
  /// caller decides whether a missing store is fatal (sitime_serve exits)
  /// or ignorable (tests probing bad paths).
  explicit DiskStore(std::string dir);

  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  bool ok() const { return init_error_.empty(); }
  const std::string& init_error() const { return init_error_; }
  const std::string& dir() const { return dir_; }

  /// Final path of a key's store file (`<dir>/<key_hex>.sit`).
  std::string path_for(const std::string& key_hex) const;

  /// Process-crash-safe write of `bytes` as the store file for
  /// `key_hex`: temp + atomic rename, no fsync (the durability contract
  /// above). Returns false on any failure, leaving no partial final file
  /// behind.
  /// FaultPoint::disk_store_write polls here.
  bool save(const std::string& key_hex, const std::string& bytes);

  /// Reads a whole store file. Returns false on any I/O failure — the
  /// caller treats that exactly like corrupt content.
  /// FaultPoint::disk_store_load polls here.
  bool read_file(const std::string& path, std::string& bytes);

  /// Every .sit file currently in the store, sorted by name so the boot
  /// load order is deterministic.
  std::vector<std::string> list_files() const;

  /// Removes one file (used for corrupt/stale store files). Best-effort.
  void remove_file(const std::string& path);

 private:
  int sweep_temp_files();

  std::string dir_;
  std::string init_error_;
};

}  // namespace sitime::svc
