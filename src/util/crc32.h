#ifndef OPAQ_UTIL_CRC32_H_
#define OPAQ_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace opaq {

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `len` bytes.
/// The classic check value: Crc32("123456789", 9) == 0xCBF43926. Shared by
/// the wire protocol frames (net/wire.h) and the on-disk extent format
/// (io/extent.h) — both pin it with golden blobs.
///
/// Two kernels compute the same function; the first call picks one for the
/// process with `__builtin_cpu_supports`:
///   - PCLMULQDQ folding (x86-64 CPUs with the carry-less multiply): four
///     128-bit lanes fold 64 bytes per step, one lane folds the 16-byte
///     remainder, and a Barrett step reduces to 32 bits (Gopal et al.,
///     Intel, "Fast CRC Computation for Generic Polynomials Using
///     PCLMULQDQ"). It takes buffers of 64 bytes and more; the last
///     `len % 16` bytes go through slicing-by-8. Built with a `target`
///     attribute, so the build's own flags stay baseline x86-64.
///   - Slicing-by-8 tables: every buffer under 64 bytes, every CPU without
///     the instruction, every non-x86 build.
uint32_t Crc32(const void* data, size_t len);

namespace internal_crc32 {

/// The slicing-by-8 kernel alone, whatever `Crc32` dispatches to — so tests
/// and benches can check and time the fallback on a CPU that never takes
/// it.
uint32_t SlicingBy8Crc32(const void* data, size_t len);

/// The kernel `Crc32` runs on buffers of 64 bytes and more on this CPU:
/// "pclmulqdq" or "slicing-by-8".
const char* Crc32KernelName();

}  // namespace internal_crc32
}  // namespace opaq

#endif  // OPAQ_UTIL_CRC32_H_
