#include "svc/disk_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "base/fault.hpp"

namespace sitime::svc {

namespace {

namespace fs = std::filesystem;

constexpr const char* kStoreSuffix = ".sit";
constexpr const char* kTempSuffix = ".tmp";

bool has_suffix(const std::string& name, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return name.size() >= n &&
         name.compare(name.size() - n, n, suffix) == 0;
}

}  // namespace

DiskStore::DiskStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    init_error_ = "cache dir path is empty";
    return;
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    init_error_ = "cannot create cache dir '" + dir_ + "': " + ec.message();
    return;
  }
  if (!fs::is_directory(dir_, ec) || ec) {
    init_error_ = "cache dir '" + dir_ + "' is not a directory";
    return;
  }
  // Probe writability up front so a read-only mount fails the boot
  // instead of silently dropping every spill later.
  const std::string probe = dir_ + "/.probe" + kTempSuffix;
  const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    init_error_ = "cache dir '" + dir_ +
                  "' is not writable: " + std::strerror(errno);
    return;
  }
  ::close(fd);
  ::unlink(probe.c_str());
  sweep_temp_files();
}

int DiskStore::sweep_temp_files() {
  // A .tmp file is a write that crashed before its rename: never valid,
  // never loaded, always safe to delete — the final file (if any) still
  // holds the previous complete bytes.
  int removed = 0;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir_, ec)) {
    const std::string name = dirent.path().filename().string();
    if (!has_suffix(name, kTempSuffix)) continue;
    std::error_code rm;
    if (fs::remove(dirent.path(), rm)) ++removed;
  }
  return removed;
}

std::string DiskStore::path_for(const std::string& key_hex) const {
  return dir_ + "/" + key_hex + kStoreSuffix;
}

bool DiskStore::save(const std::string& key_hex, const std::string& bytes) {
  if (base::fault_fires(base::FaultPoint::disk_store_write)) return false;
  const std::string temp_path = dir_ + "/" + key_hex + kTempSuffix;
  const std::string final_path = path_for(key_hex);
  const int fd =
      ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  bool io_ok = true;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  // No fsync: the store is a cache. The written pages outlive the
  // process; a power loss can at worst leave a file the load path rejects
  // and the design is recomputed.
  if (::close(fd) != 0) io_ok = false;
  if (!io_ok || ::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(temp_path.c_str());
    return false;
  }
  return true;
}

bool DiskStore::read_file(const std::string& path, std::string& bytes) {
  if (base::fault_fires(base::FaultPoint::disk_store_load)) return false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bytes.clear();
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

std::vector<std::string> DiskStore::list_files() const {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir_, ec)) {
    const std::string name = dirent.path().filename().string();
    if (has_suffix(name, kStoreSuffix))
      files.push_back(dirent.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

void DiskStore::remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace sitime::svc
