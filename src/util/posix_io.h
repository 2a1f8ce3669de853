// EINTR-safe IO on POSIX descriptors.
//
// An interrupted syscall (a profiler's SIGPROF, a debugger attach, the
// daemon's own signal handling) must never surface as a failed or short
// write. These helpers retry EINTR and partial transfers and report real
// errors explicitly. WriteFileAtomically is the faultpoint site for
// file-publish failures (testing/faultpoints.h: "posix_io.open",
// "posix_io.short_write").

#ifndef XSKETCH_UTIL_POSIX_IO_H_
#define XSKETCH_UTIL_POSIX_IO_H_

#include <string>

#include "util/status.h"

namespace xsketch::util {

// Publishes `bytes` at `path` atomically: writes a temp file in the same
// directory, fsyncs it, then rename(2)s it over `path`. A process that
// has the old file mmap'ed keeps reading the old inode (truncating it in
// place would SIGBUS that reader), and a concurrent open sees either the
// old file or the complete new one. On failure `path` is untouched and
// the temp file is removed. EINTR and partial writes are retried;
// NotFound when the temp file cannot be created (or "posix_io.open" is
// armed), Internal for write/fsync/rename errors (or "posix_io.short_write"
// armed).
Status WriteFileAtomically(const std::string& path, const std::string& bytes);

// read(2)/write(2) in a retry loop: returns the number of bytes
// transferred (which is < n only at EOF for reads), or -1 with errno set
// on a real error. Exposed for the network layer's tests.
long RetryRead(int fd, void* buf, size_t n);
long RetryWrite(int fd, const void* buf, size_t n);

}  // namespace xsketch::util

#endif  // XSKETCH_UTIL_POSIX_IO_H_
