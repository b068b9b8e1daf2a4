// Durable file operations: the one place in src/ that decides how a
// file, a directory entry or a removal reaches the disk.
//
// The model (Pillai et al., "All File Systems Are Not Created Equal",
// OSDI 2014): after a power cut a file holds the bytes it had at its
// last fsync, and bytes written since may be lost; a create, rename,
// unlink or mkdir is certain to survive only once its directory has
// been fsynced.  Hence:
//
//   WriteFileDurably          tmp → write → fsync → rename → directory
//                             fsync: `name` holds its old contents or
//                             all of the new ones, never a torn mix, and
//                             the new ones survive a power cut once the
//                             call returns
//   RemoveFileDurably         unlink → directory fsync
//   CreateDirectoriesDurably  mkdir each missing level → fsync its parent
//   WriteAll + SyncFile       the append path of a file held open (a WAL
//                             segment): the bytes are durable once
//                             SyncFile returns
//
// Every failure throws util::IoError naming the path.  cfsf_lint's
// `raw-durable-io-in-library` rule keeps fsync, rename, unlink and the
// std::filesystem create/rename/remove calls out of the rest of src/.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cfsf::util {

/// Writes the concatenated `pieces` to `<dir>/<name>.tmp`, fsyncs it,
/// renames it to `<dir>/<name>` and fsyncs `dir` (an empty `dir` is the
/// working directory).  On failure the tmp file is unlinked and the
/// target keeps whatever it held before.
void WriteFileDurably(const std::string& dir, const std::string& name,
                      const std::vector<std::string_view>& pieces);

/// Unlinks `<dir>/<name>`, then fsyncs `dir`.  Throws when the file is
/// missing too: a caller for whom that is fine catches.
void RemoveFileDurably(const std::string& dir, const std::string& name);

/// Creates every missing level of `path`, fsyncing each new level's
/// parent.  A directory that already exists costs one stat.
void CreateDirectoriesDurably(const std::string& path);

/// Writes all of `bytes` to the open `fd` (the file at `path`), retrying
/// short writes and EINTR.  `*written`, when given, receives how many
/// bytes reached the file, on failure too.
void WriteAll(int fd, const std::string& path, std::string_view bytes,
              std::size_t* written = nullptr);

/// fsync(2) of the open `fd` (the file at `path`).
void SyncFile(int fd, const std::string& path);

/// The object representation of `value` as one WriteFileDurably piece.
template <typename T>
std::string_view AsBytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const char*>(&value), sizeof(T)};
}

/// Test-only: one operation of this module, reported after it succeeded.
struct DurableOp {
  enum class Kind { kCreate, kWrite, kFsync, kRename, kUnlink, kDirFsync,
                    kMkdir };
  Kind kind;
  std::string_view path;    // the file or directory; a rename's source
  std::string_view target;  // a rename's destination
  std::string_view bytes;   // kWrite: appended at the file's end
};
using DurableObserver = std::function<void(const DurableOp&)>;

/// Test-only: installs `observer` (an empty one uninstalls).  It runs on
/// the thread that performed the operation; the op's views are valid
/// only for the call.
void SetDurableObserver(DurableObserver observer);

}  // namespace cfsf::util
