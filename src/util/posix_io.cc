#include "util/posix_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "testing/faultpoints.h"

namespace xsketch::util {

namespace {

// Writes all of `bytes` to `fd`, fsyncs it and closes it, whatever the
// outcome.
Status WriteAndClose(int fd, const std::string& path,
                     const std::string& bytes) {
  long wrote = bytes.empty() ? 0 : RetryWrite(fd, bytes.data(), bytes.size());
  if (wrote >= 0 && XS_FAULT("posix_io.short_write")) {
    errno = ENOSPC;
    wrote = -1;  // injected device-full
  }
  if (wrote >= 0 && ::fsync(fd) != 0) wrote = -1;
  if (wrote < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("write error on " + path + ": " + err);
  }
  if (::close(fd) != 0 && errno != EINTR) {
    // close() reports deferred write errors on some filesystems; EINTR
    // after close leaves the fd state unspecified — do not retry close.
    return Status::Internal("close " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

long RetryRead(int fd, void* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r =
        ::read(fd, static_cast<char*>(buf) + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;  // EOF
    done += static_cast<size_t>(r);
  }
  return static_cast<long>(done);
}

long RetryWrite(int fd, const void* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w =
        ::write(fd, static_cast<const char*>(buf) + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(w);
  }
  return static_cast<long>(done);
}

Status WriteFileAtomically(const std::string& path, const std::string& bytes) {
  if (XS_FAULT("posix_io.open")) {
    return Status::NotFound("cannot open " + path +
                            ": injected fault (posix_io.open)");
  }
  // Same directory as `path`, so the rename never crosses filesystems.
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = ::mkostemp(tmp.data(), O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot create a temp file next to " + path +
                            ": " + std::strerror(errno));
  }
  // mkostemp creates 0600; sketch files are published world-readable.
  ::fchmod(fd, 0644);
  Status st = WriteAndClose(fd, tmp, bytes);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal("rename " + tmp + " -> " + path + ": " +
                          std::strerror(errno));
  }
  if (!st.ok()) ::unlink(tmp.c_str());
  return st;
}

}  // namespace xsketch::util
