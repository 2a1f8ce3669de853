// XSK3 persistence for FrozenSynopsis: save the frozen arrays as a
// mmap-able image, load an image back as a zero-copy view.
//
// SaveFrozen serializes a FrozenSynopsis into the XSK3 byte layout
// (core/xsk3_format.h). LoadFrozen attaches a FrozenSynopsis directly to
// a memory-mapped (or in-memory) image: O(1) pointer fix-up per section,
// after a validation pass that trusts nothing on disk — the header and
// every section payload must match their CRC32, every section
// offset/size is bounds-checked against the file length, every CSR array
// is checked for monotonicity and consistent totals, and every index the
// executor dereferences (edge targets, dimension indices, tag-index
// entries) is range-checked. A linear sweep over the double sections then
// checks the floating-point invariants the executor assumes (finite
// fractions > 0, finite box bounds with hi > lo, finite means).
// Truncation anywhere — including the trailing section — is a hard error,
// because the header records the exact file size and every section must
// land inside it.
//
// Loaded estimates are bit-identical to the heap path: the image stores
// the frozen doubles verbatim, and execution reads them through the same
// accessors.
//
// Byte order: XSK3 is little-endian on disk. Saving and loading are
// supported on little-endian hosts only; big-endian hosts get a clean
// error (no silent byte-swapped reads).

#ifndef XSKETCH_CORE_FROZEN_IO_H_
#define XSKETCH_CORE_FROZEN_IO_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/frozen.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace xsketch::core {

// Serializes the frozen arrays into an XSK3 image. Fails only on a
// big-endian host.
util::Result<std::string> SaveFrozen(const FrozenSynopsis& frozen);

// SaveFrozen + atomic publish (util::WriteFileAtomically: temp file in the
// same directory, fsync, rename(2) over `path`). A process that has the
// old file mapped keeps serving it; the next load sees the new image.
util::Status SaveFrozenToFile(const FrozenSynopsis& frozen,
                              const std::string& path);

// Attaches a FrozenSynopsis to a mapped XSK3 image. The returned synopsis
// holds the mapping alive; compiled programs built over it keep it pinned
// via their shared_ptr chain.
util::Result<std::shared_ptr<const FrozenSynopsis>> LoadFrozen(
    std::shared_ptr<const util::MappedFile> file);

// mmap(path) + LoadFrozen.
util::Result<std::shared_ptr<const FrozenSynopsis>> LoadFrozenFile(
    const std::string& path);

// Loads from an in-memory image (copied into aligned storage the returned
// synopsis owns). For tests, fuzzing, and callers that already read the
// bytes.
util::Result<std::shared_ptr<const FrozenSynopsis>> LoadFrozenFromBytes(
    std::string_view bytes);

}  // namespace xsketch::core

#endif  // XSKETCH_CORE_FROZEN_IO_H_
