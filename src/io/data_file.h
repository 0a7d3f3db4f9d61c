#ifndef OPAQ_IO_DATA_FILE_H_
#define OPAQ_IO_DATA_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "io/block_device.h"
#include "util/status.h"

namespace opaq {

/// Element type tags stored in DataFile headers.
enum class KeyType : uint32_t {
  kU32 = 1,
  kU64 = 2,
  kI64 = 3,
  kF32 = 4,
  kF64 = 5,
};

/// Maps C++ key types to their on-disk KeyType tag.
template <typename K>
struct KeyTraits;
template <>
struct KeyTraits<uint32_t> {
  static constexpr KeyType kType = KeyType::kU32;
  static constexpr const char* kName = "u32";
};
template <>
struct KeyTraits<uint64_t> {
  static constexpr KeyType kType = KeyType::kU64;
  static constexpr const char* kName = "u64";
};
template <>
struct KeyTraits<int64_t> {
  static constexpr KeyType kType = KeyType::kI64;
  static constexpr const char* kName = "i64";
};
template <>
struct KeyTraits<float> {
  static constexpr KeyType kType = KeyType::kF32;
  static constexpr const char* kName = "f32";
};
template <>
struct KeyTraits<double> {
  static constexpr KeyType kType = KeyType::kF64;
  static constexpr const char* kName = "f64";
};

/// InvalidArgument unless the `key_type` tag (a KeyType, or its on-disk or
/// wire uint32_t) and `element_size` name `K`; `what` names their holder.
template <typename K, typename Tag>
Status CheckKeyType(Tag key_type, const std::string& what,
                    uint64_t element_size = sizeof(K)) {
  if (static_cast<uint32_t>(key_type) ==
          static_cast<uint32_t>(KeyTraits<K>::kType) &&
      element_size == sizeof(K)) {
    return Status::OK();
  }
  return Status::InvalidArgument(what + " holds a different key type than " +
                                 KeyTraits<K>::kName);
}

/// Calls `f(K{})` for the C++ key type `K` the `type` tag names and returns
/// its result, which must be a `Status` or a `Result<T>`: how untyped code
/// (the daemons, anything holding a tag read from disk or the wire) reaches
/// the typed API. An unknown tag returns InvalidArgument naming it. This is
/// the one switch over `KeyType`; add a key type here and in `KeyTraits`.
template <typename F>
auto VisitKeyType(KeyType type, F&& f) -> decltype(f(uint32_t{})) {
  switch (type) {
    case KeyType::kU32: return f(uint32_t{});
    case KeyType::kU64: return f(uint64_t{});
    case KeyType::kI64: return f(int64_t{});
    case KeyType::kF32: return f(float{});
    case KeyType::kF64: return f(double{});
  }
  return Status::InvalidArgument(
      "unknown key type tag " +
      std::to_string(static_cast<uint32_t>(type)));
}

/// Fixed 32-byte header at offset 0 of every data file.
struct DataFileHeader {
  static constexpr uint64_t kMagic = 0x4f50415144415431ULL;  // "OPAQDAT1"
  uint64_t magic = kMagic;
  uint32_t version = 1;
  uint32_t key_type = 0;
  uint64_t element_count = 0;
  uint32_t element_size = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(DataFileHeader) == 32);
static_assert(std::is_trivially_copyable_v<DataFileHeader>);

/// Untyped view of a dataset laid out as `header | raw records` on a
/// BlockDevice. The typed wrappers below are what library users touch.
class DataFile {
 public:
  /// Validates and reads the header of an existing file on `device`.
  /// `device` is borrowed and must outlive the DataFile.
  static Result<DataFile> Open(BlockDevice* device);

  /// Writes a fresh header describing `element_count` elements (may be 0 and
  /// grown later with set_element_count + RewriteHeader).
  static Result<DataFile> Create(BlockDevice* device, KeyType key_type,
                                 uint32_t element_size,
                                 uint64_t element_count);

  uint64_t element_count() const { return header_.element_count; }
  uint32_t element_size() const { return header_.element_size; }
  KeyType key_type() const { return static_cast<KeyType>(header_.key_type); }
  BlockDevice* device() const { return device_; }

  /// Reads `count` elements starting at element index `first` into `out`.
  Status ReadElements(uint64_t first, uint64_t count, void* out) const;

  /// Writes `count` elements at element index `first`.
  Status WriteElements(uint64_t first, uint64_t count, const void* in);

  /// Updates element_count and persists the header.
  Status SetElementCount(uint64_t count);

 private:
  DataFile(BlockDevice* device, DataFileHeader header)
      : device_(device), header_(header) {}

  uint64_t ByteOffset(uint64_t element_index) const {
    return sizeof(DataFileHeader) + element_index * header_.element_size;
  }

  BlockDevice* device_;
  DataFileHeader header_;
};

/// Typed convenience wrapper over DataFile for key type `K`.
template <typename K>
class TypedDataFile {
 public:
  static Result<TypedDataFile<K>> Open(BlockDevice* device) {
    auto file = DataFile::Open(device);
    if (!file.ok()) return file.status();
    OPAQ_RETURN_IF_ERROR(CheckKeyType<K>(file->key_type(), "data file"));
    return TypedDataFile<K>(std::move(file).value());
  }

  static Result<TypedDataFile<K>> Create(BlockDevice* device,
                                         uint64_t element_count) {
    auto file = DataFile::Create(device, KeyTraits<K>::kType,
                                 static_cast<uint32_t>(sizeof(K)),
                                 element_count);
    if (!file.ok()) return file.status();
    return TypedDataFile<K>(std::move(file).value());
  }

  uint64_t size() const { return file_.element_count(); }

  Status Read(uint64_t first, uint64_t count, K* out) const {
    return file_.ReadElements(first, count, out);
  }

  Status Write(uint64_t first, const std::vector<K>& values) {
    return file_.WriteElements(first, values.size(), values.data());
  }

  /// Appends `values` after the current end and persists the new count.
  Status Append(const std::vector<K>& values) {
    uint64_t first = file_.element_count();
    OPAQ_RETURN_IF_ERROR(
        file_.WriteElements(first, values.size(), values.data()));
    return file_.SetElementCount(first + values.size());
  }

  /// Reads the whole file into memory (test/metrics helper; the core
  /// algorithm never does this — that is the point of OPAQ).
  Result<std::vector<K>> ReadAll() const {
    std::vector<K> out(size());
    if (!out.empty()) {
      OPAQ_RETURN_IF_ERROR(Read(0, out.size(), out.data()));
    }
    return out;
  }

  DataFile& raw() { return file_; }

 private:
  explicit TypedDataFile(DataFile file) : file_(std::move(file)) {}
  DataFile file_;
};

}  // namespace opaq

#endif  // OPAQ_IO_DATA_FILE_H_
