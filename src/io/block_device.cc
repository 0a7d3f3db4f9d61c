#include "io/block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace opaq {

Status MemoryBlockDevice::ReadAt(uint64_t offset, void* buffer,
                                 size_t length) {
  if (offset + length > data_.size()) {
    return Status::OutOfRange("read past end of memory device");
  }
  std::memcpy(buffer, data_.data() + offset, length);
  RecordRead(length);
  return Status::OK();
}

Status MemoryBlockDevice::WriteAt(uint64_t offset, const void* buffer,
                                  size_t length) {
  if (offset + length > data_.size()) data_.resize(offset + length);
  std::memcpy(data_.data() + offset, buffer, length);
  RecordWrite(length);
  return Status::OK();
}

Result<uint64_t> MemoryBlockDevice::Size() const {
  return static_cast<uint64_t>(data_.size());
}

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Make(
    const std::string& path, Mode mode) {
  int flags = O_RDONLY;
  if (mode == Mode::kReadWrite) flags = O_RDWR;
  if (mode == Mode::kCreate) flags = O_RDWR | O_CREAT | O_TRUNC;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError("open('" + path + "'): " + std::strerror(errno));
  }
  return std::unique_ptr<FileBlockDevice>(new FileBlockDevice(path, fd));
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileBlockDevice::ReadAt(uint64_t offset, void* buffer, size_t length) {
  uint8_t* out = static_cast<uint8_t*>(buffer);
  size_t done = 0;
  while (done < length) {
    ssize_t got = ::pread(fd_, out + done, length - done,
                          static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pread('" + path_ +
                             "'): " + std::strerror(errno));
    }
    if (got == 0) {
      return Status::OutOfRange("read past end of file '" + path_ + "'");
    }
    done += static_cast<size_t>(got);
  }
  RecordRead(length);
  return Status::OK();
}

Status FileBlockDevice::WriteAt(uint64_t offset, const void* buffer,
                                size_t length) {
  const uint8_t* in = static_cast<const uint8_t*>(buffer);
  size_t done = 0;
  while (done < length) {
    ssize_t put = ::pwrite(fd_, in + done, length - done,
                           static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pwrite('" + path_ +
                             "'): " + std::strerror(errno));
    }
    done += static_cast<size_t>(put);
  }
  RecordWrite(length);
  return Status::OK();
}

Result<uint64_t> FileBlockDevice::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError("fstat('" + path_ + "'): " + std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status FileBlockDevice::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync('" + path_ + "'): " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace opaq
