#include "util/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/error.hpp"
#include "util/mutex.hpp"

namespace cfsf::util {

namespace {

namespace fs = std::filesystem;

Mutex observer_mutex;
DurableObserver observer CFSF_GUARDED_BY(observer_mutex);

void Notify(const DurableOp& op) {
  DurableObserver installed;
  {
    MutexLock lock(&observer_mutex);
    installed = observer;
  }
  if (installed) installed(op);
}

// `what` and `path` allocate nothing, so the defaulted `error` is still
// the failed call's errno.
[[noreturn]] void Throw(const char* what, const std::string& path,
                        int error = errno) {
  throw IoError(std::string(what) + " " + path + ": " + std::strerror(error));
}

void SyncDirectory(const std::string& dir) {
  const std::string path = dir.empty() ? "." : dir;
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) Throw("cannot open directory", path);
  const int rc = ::fsync(fd);
  const int error = errno;
  ::close(fd);
  if (rc != 0) Throw("cannot fsync directory", path, error);
  Notify({DurableOp::Kind::kDirFsync, path, {}, {}});
}

}  // namespace

void WriteAll(int fd, const std::string& path, std::string_view bytes,
              std::size_t* written) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (written != nullptr) *written = done;
      Throw("cannot write", path);
    }
    done += static_cast<std::size_t>(n);
  }
  if (written != nullptr) *written = done;
  Notify({DurableOp::Kind::kWrite, path, {}, bytes});
}

void SyncFile(int fd, const std::string& path) {
  if (::fsync(fd) != 0) Throw("cannot fsync", path);
  Notify({DurableOp::Kind::kFsync, path, {}, {}});
}

void WriteFileDurably(const std::string& dir, const std::string& name,
                      const std::vector<std::string_view>& pieces) {
  const std::string path = (fs::path(dir) / name).string();
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) Throw("cannot create", tmp);
  try {
    Notify({DurableOp::Kind::kCreate, tmp, {}, {}});
    for (const std::string_view piece : pieces) WriteAll(fd, tmp, piece);
    SyncFile(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    ::unlink(tmp.c_str());
    Throw("cannot rename the tmp file to", path, error);
  }
  Notify({DurableOp::Kind::kRename, tmp, path, {}});
  SyncDirectory(dir);
}

void RemoveFileDurably(const std::string& dir, const std::string& name) {
  const std::string path = (fs::path(dir) / name).string();
  if (::unlink(path.c_str()) != 0) Throw("cannot unlink", path);
  Notify({DurableOp::Kind::kUnlink, path, {}, {}});
  SyncDirectory(dir);
}

void CreateDirectoriesDurably(const std::string& path) {
  // The missing levels, deepest first.  A level that cannot be stat'ed
  // counts as missing: its mkdir then reports why.
  std::vector<fs::path> missing;
  std::error_code ec;
  fs::path level = fs::path(path).lexically_normal();
  if (!level.has_filename()) level = level.parent_path();  // "a/b/" -> "a/b"
  while (!level.empty() && !fs::is_directory(level, ec)) {
    missing.push_back(level);
    if (level.parent_path() == level) break;
    level = level.parent_path();
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    if (::mkdir(it->c_str(), 0755) == 0) {
      Notify({DurableOp::Kind::kMkdir, it->native(), {}, {}});
    } else if (errno != EEXIST) {
      Throw("cannot create directory", it->native());
    } else if (!fs::is_directory(*it, ec)) {
      Throw("cannot create directory", it->native(), EEXIST);
    }  // else a racing creator made it: fsync its parent all the same
    SyncDirectory(it->parent_path().string());
  }
}

void SetDurableObserver(DurableObserver replacement) {
  MutexLock lock(&observer_mutex);
  observer = std::move(replacement);
}

}  // namespace cfsf::util
