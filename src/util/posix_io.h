// EINTR-safe whole-file read/write on POSIX descriptors.
//
// The sketch load/save paths used iostreams, where an interrupted syscall
// (a profiler's SIGPROF, a debugger attach, the daemon's own signal
// handling) surfaces as a generic stream failure — or worse, a silently
// short read handed to the parser. These helpers retry EINTR on
// open/read/write and report short IO explicitly. They are also the
// faultpoint sites for short-read/short-write injection
// (testing/faultpoints.h: "posix_io.short_read", "posix_io.short_write",
// "posix_io.open").

#ifndef XSKETCH_UTIL_POSIX_IO_H_
#define XSKETCH_UTIL_POSIX_IO_H_

#include <string>

#include "util/status.h"

namespace xsketch::util {

// Reads the whole regular file at `path` into `out` (replacing its
// contents). NotFound when the file cannot be opened, InvalidArgument for
// non-regular files, Internal for IO errors (including injected short
// reads).
Status ReadFileToString(const std::string& path, std::string* out);

// Writes `bytes` to `path` (O_TRUNC | O_CREAT, mode 0644), retrying
// EINTR and partial writes until everything is on its way to the kernel.
Status WriteStringToFile(const std::string& path, const std::string& bytes);

// Publishes `bytes` at `path` atomically: writes a temp file in the same
// directory, fsyncs it, then rename(2)s it over `path`. A process that
// has the old file mmap'ed keeps reading the old inode (truncating it in
// place would SIGBUS that reader), and a concurrent open sees either the
// old file or the complete new one. On failure `path` is untouched and
// the temp file is removed. Same faultpoints as WriteStringToFile.
Status WriteFileAtomically(const std::string& path, const std::string& bytes);

// read(2)/write(2) in a retry loop: returns the number of bytes
// transferred (which is < n only at EOF for reads), or -1 with errno set
// on a real error. Exposed for the network layer's tests.
long RetryRead(int fd, void* buf, size_t n);
long RetryWrite(int fd, const void* buf, size_t n);

}  // namespace xsketch::util

#endif  // XSKETCH_UTIL_POSIX_IO_H_
