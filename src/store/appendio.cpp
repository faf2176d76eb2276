#include "store/appendio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/result_store.hpp"

namespace araxl::store {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Writes all of `data`, looping over partial write(2) returns. Throws on
/// a real I/O error.
void write_all(int fd, const char* data, std::size_t len,
               const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StoreIoError("failed appending to " + path + ": " + errno_text());
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

void append_lines(const std::string& path, std::string_view payload,
                  const AppendFaults& faults, bool fsync_file) {
  if (payload.empty()) return;
  if (faults.open_fails && faults.open_fails()) {
    throw StoreIoError("injected open failure on " + path);
  }
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    throw StoreIoError("cannot open " + path + " for appending: " +
                       errno_text());
  }
  // A crashed (or fault-injected) writer can leave the file ending in a
  // torn, newline-less tail, and a concurrent one can land it after our
  // open, so no look at the tail can rule it out. Appending straight after
  // it would merge our first record into that garbage line and lose it,
  // so every append starts on a fresh line; the loaders skip the blank
  // lines this leaves between clean appends.
  std::string body;
  body.reserve(payload.size() + 1);
  body.push_back('\n');
  body.append(payload);
  bool torn = false;
  if (faults.short_write) {
    if (const auto cut = faults.short_write(payload.size())) {
      body.resize(std::min(body.size(), 1 + *cut));
      torn = true;
    }
  }
  try {
    write_all(fd, body.data(), body.size(), path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (fsync_file && ::fsync(fd) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    throw StoreIoError("fsync failed on " + path + ": " + why);
  }
  ::close(fd);
  if (torn) {
    // Callers must retain the payload: a later append re-writes every
    // record as whole lines, and the loaders skip the torn line and dedupe
    // the rest.
    throw StoreIoError("injected short write to " + path);
  }
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);  // best effort: some filesystems refuse directory fsync
  ::close(fd);
}

}  // namespace araxl::store
