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

int OpenRetry(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

// Writes all of `bytes` to `fd` (fsyncing first when `sync`) and closes
// it, whatever the outcome.
Status WriteAndClose(int fd, const std::string& path, const std::string& bytes,
                     bool sync) {
  long wrote = bytes.empty() ? 0 : RetryWrite(fd, bytes.data(), bytes.size());
  if (wrote >= 0 && XS_FAULT("posix_io.short_write")) {
    errno = ENOSPC;
    wrote = -1;  // injected device-full
  }
  if (wrote >= 0 && sync && ::fsync(fd) != 0) wrote = -1;
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

Status ReadFileToString(const std::string& path, std::string* out) {
  if (XS_FAULT("posix_io.open")) {
    return Status::NotFound("cannot open " + path +
                            ": injected fault (posix_io.open)");
  }
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("fstat " + path + ": " + err);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument(path + " is not a regular file");
  }
  out->resize(static_cast<size_t>(st.st_size));
  long got = out->empty() ? 0 : RetryRead(fd, out->data(), out->size());
  if (got >= 0 && XS_FAULT("posix_io.short_read")) {
    got = got / 2;  // injected truncation: the caller must detect it
  }
  ::close(fd);
  if (got < 0) {
    return Status::Internal("read error on " + path + ": " +
                            std::strerror(errno));
  }
  if (static_cast<size_t>(got) != out->size()) {
    // The file shrank mid-read (or a fault was injected): report it
    // rather than handing the parser a silently truncated buffer.
    return Status::Internal("short read on " + path + ": got " +
                            std::to_string(got) + " of " +
                            std::to_string(out->size()) + " bytes");
  }
  return Status::OK();
}

Status WriteStringToFile(const std::string& path, const std::string& bytes) {
  if (XS_FAULT("posix_io.open")) {
    return Status::NotFound("cannot open " + path +
                            ": injected fault (posix_io.open)");
  }
  const int fd = OpenRetry(path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  return WriteAndClose(fd, path, bytes, /*sync=*/false);
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
  Status st = WriteAndClose(fd, tmp, bytes, /*sync=*/true);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal("rename " + tmp + " -> " + path + ": " +
                          std::strerror(errno));
  }
  if (!st.ok()) ::unlink(tmp.c_str());
  return st;
}

}  // namespace xsketch::util
