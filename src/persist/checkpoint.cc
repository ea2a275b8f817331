#include "persist/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "persist/serializer.h"

namespace butterfly::persist {

namespace {

constexpr size_t kHeaderBytes = 8 + 4 + 8;  // magic + version + size
constexpr size_t kTrailerBytes = 4;         // crc

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// Writes the whole buffer through a raw fd, retrying short writes.
Status WriteAll(int fd, const std::string& data, const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write", path));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// fsyncs the directory containing \p path so the rename itself is durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open dir", dir));
  Status status = Status::OK();
  if (::fsync(fd) != 0) {
    status = Status::IOError(ErrnoMessage("fsync dir", dir));
  }
  ::close(fd);
  return status;
}

}  // namespace

Status WriteCheckpointFile(const std::string& path, const std::string& payload,
                           uint64_t* bytes_written) {
  // Build the full frame in memory; snapshots are small relative to the
  // window state they capture, and one contiguous write keeps the protocol
  // simple: the temp file is complete before it is ever renamed into place.
  CheckpointWriter frame;
  for (char c : kCheckpointMagic) frame.U8(static_cast<uint8_t>(c));
  frame.U32(kCheckpointVersion);
  frame.U64(payload.size());
  const std::string& head = frame.data();
  uint32_t crc = Crc32(head.data() + 8, head.size() - 8);
  crc = Crc32(payload.data(), payload.size(), crc);
  CheckpointWriter trailer;
  trailer.U32(crc);

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", tmp));
  Status status = WriteAll(fd, head, tmp);
  if (status.ok()) status = WriteAll(fd, payload, tmp);
  if (status.ok()) status = WriteAll(fd, trailer.data(), tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IOError(ErrnoMessage("fsync", tmp));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IOError(ErrnoMessage("close", tmp));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError(ErrnoMessage("rename", tmp + " -> " + path));
    ::unlink(tmp.c_str());
    return status;
  }
  status = SyncParentDir(path);
  if (!status.ok()) return status;
  if (bytes_written != nullptr) {
    *bytes_written = head.size() + payload.size() + trailer.data().size();
  }
  return Status::OK();
}

Result<std::string> ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("checkpoint file not found: " + path);
  }
  // One read, sized by the end offset. A directory opens too and reports a
  // bogus end offset, so nothing is sized before a first read succeeds.
  const std::streamoff size = in.tellg();
  in.seekg(0);
  in.peek();
  if (size < 0 || in.bad()) {
    return Status::IOError("failed reading checkpoint file " + path);
  }
  std::string file(static_cast<size_t>(size), '\0');
  in.read(file.data(), size);
  if (in.bad()) {
    return Status::IOError("failed reading checkpoint file " + path);
  }
  file.resize(static_cast<size_t>(in.gcount()));
  if (file.size() < kHeaderBytes + kTrailerBytes) {
    return Status::IOError("checkpoint truncated: " + path + " holds " +
                           std::to_string(file.size()) + " bytes");
  }
  if (std::memcmp(file.data(), kCheckpointMagic, 8) != 0) {
    return Status::InvalidArgument("not a checkpoint file (bad magic): " +
                                   path);
  }
  CheckpointReader header(std::string_view(file).substr(8));
  const uint32_t version = header.U32();
  const uint64_t payload_size = header.U64();
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        "): " + path);
  }
  if (payload_size != file.size() - kHeaderBytes - kTrailerBytes) {
    return Status::IOError("checkpoint truncated: " + path +
                           " payload size disagrees with the file size");
  }
  const uint32_t stored_crc =
      CheckpointReader(std::string_view(file).substr(file.size() - 4)).U32();
  const uint32_t computed_crc =
      Crc32(file.data() + 8, file.size() - 8 - kTrailerBytes);
  if (stored_crc != computed_crc) {
    return Status::IOError("checkpoint corrupt (CRC mismatch): " + path);
  }
  return file.substr(kHeaderBytes, payload_size);
}

}  // namespace butterfly::persist
