// Copyright 2026 The LTAM Authors.

#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

namespace ltam {

Result<WalWriter> WalWriter::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return WalWriter(file);
}

Result<WalWriter> WalWriter::Create(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return WalWriter(file);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(other.file_), appended_(other.appended_) {
  other.file_ = nullptr;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    appended_ = other.appended_;
    other.file_ = nullptr;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Append(const Record& record) {
  std::string line = EncodeRecord(record);
  line += '\n';
  return AppendEncoded(line);
}

Status WalWriter::AppendEncoded(const std::string& line) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL moved-from");
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::IOError("short WAL write");
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("WAL flush failed");
  }
  ++appended_;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL moved-from");
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError(std::string("fsync failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status ReplayWal(const std::string& path,
                 const std::function<Status(const Record&)>& apply) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open WAL '" + path + "' for replay");
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  size_t start = 0;
  while (start < contents.size()) {
    size_t nl = contents.find('\n', start);
    if (nl == std::string::npos) {
      // Torn final append (no trailing newline): ignore it; everything
      // before it replays normally.
      break;
    }
    std::string line = contents.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    Result<Record> rec = DecodeRecord(line);
    if (!rec.ok()) {
      return rec.status().WithContext("WAL replay of '" + path + "'");
    }
    LTAM_RETURN_IF_ERROR(apply(*rec));
  }
  return Status::OK();
}

namespace {

/// Sets `*size` to the log's size and `*keep` to the bytes up to and
/// including its last '\n' (0 when it has none). Reads the last byte,
/// which settles a clean log, then backward a kWalTailBlock block at a
/// time until a '\n' turns up.
Status FindTornTail(const std::string& path, uint64_t* keep, uint64_t* size) {
  std::ifstream in;
  in.rdbuf()->pubsetbuf(nullptr, 0);  // Read exactly the blocks asked for.
  in.open(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::IOError("cannot open WAL '" + path + "' for tail repair");
  }
  *size = static_cast<uint64_t>(in.tellg());
  *keep = 0;
  char block[kWalTailBlock];
  size_t step = 1;
  for (uint64_t end = *size; end > 0 && *keep == 0; step = kWalTailBlock) {
    const uint64_t start = end > step ? end - step : 0;
    const size_t len = static_cast<size_t>(end - start);
    if (!in.seekg(static_cast<std::streamoff>(start)) ||
        !in.read(block, static_cast<std::streamsize>(len))) {
      return Status::IOError("cannot read WAL '" + path + "' for tail repair");
    }
    for (size_t i = len; i > 0; --i) {
      if (block[i - 1] == '\n') {
        *keep = start + i;
        break;
      }
    }
    end = start;
  }
  return Status::OK();
}

}  // namespace

Result<size_t> TornWalTailBytes(const std::string& path) {
  uint64_t keep = 0;
  uint64_t size = 0;
  LTAM_RETURN_IF_ERROR(FindTornTail(path, &keep, &size));
  return static_cast<size_t>(size - keep);
}

Result<size_t> TruncateTornWalTail(const std::string& path) {
  uint64_t keep = 0;
  uint64_t size = 0;
  LTAM_RETURN_IF_ERROR(FindTornTail(path, &keep, &size));
  if (keep == size) return size_t{0};
  if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0) {
    return Status::IOError("cannot truncate torn tail of WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return static_cast<size_t>(size - keep);
}

namespace {

Status SyncFd(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync '" + path +
                           "' failed: " + std::strerror(saved));
  }
  return Status::OK();
}

}  // namespace

bool FileExists(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status SyncFile(const std::string& path) { return SyncFd(path, O_RDONLY); }

Status SyncDir(const std::string& path) {
  return SyncFd(path, O_RDONLY | O_DIRECTORY);
}

}  // namespace ltam
